"""Discrete energy budget, residual audit, and turbidity observables.

The ledger tracks, per step,

    K^{k+1/2} + Ep^k + Ev^k + Es^{k-1/2} - K^{1/2} - Ep^0  =  E_res^k,

where Ev and Es are the time-integrated viscous and settling dissipation
rates.  The telescoped budget identity pins E_res^k to

    (dt/2) (<phi^k e_g, u^{k+1/2}> - <phi^0 e_g, u^{1/2}>),

which the engine re-evaluates each step from the two states alone, as it
does every other term of the ledger: no term comes from the step.  The
gap between the two is reported as `eres_gap` and is solver-precision
small.  E_res is therefore purely the staggering mismatch and scales
linearly in dt.  Without particles Ep = Es = 0 and the right side is 0,
so `eres_gap` is E_res itself.
"""

from dataclasses import dataclass, fields

import numpy as np

# the Engine's running scalars, saved in checkpoints in this order
ACCUMULATORS = ("Ev", "Es", "K_half0", "Ep0", "m_p0", "base_exchange")

FRONT_THRESHOLD = 0.01  # depth-averaged concentration that marks the front
FRONT_SAMPLES = 8       # Gauss points per column in the depth average
LOCATE_TOL = 1e-12      # reference-coordinate slack of "inside a cell"


@dataclass
class LedgerRow:
    step: int
    t: float
    K: float
    Ep: float
    eps_v: float
    eps_s: float
    Ev: float
    Es: float
    E_res: float
    enstrophy: float
    total_vorticity: float
    m_p_ratio: float
    mdot_s: float
    x_f: float
    phi_min: float
    phi_max: float
    div_inf: float
    # the audit fields, AUDIT_FIELDS, which the CSV does not hold
    mass_residual: float = 0.0
    eres_gap: float = 0.0
    exchange: float = 0.0

    def csv_values(self):
        return [getattr(self, name) for name in CSV_COLUMNS]


AUDIT_FIELDS = ("mass_residual", "eres_gap", "exchange")
# the CSV schema: every other ledger field, in order
CSV_COLUMNS = tuple(f.name for f in fields(LedgerRow) if f.name not in AUDIT_FIELDS)


class FrontTracker:
    """Front position from depth-averaged concentration thresholding.

    Columns are sampled at mesh-resolution spacing across the channel;
    the front is the right-most column whose depth average reaches
    FRONT_THRESHOLD (domain left edge if none does).  The depth averages
    are one sparse matrix, built once: each sample point is evaluated in
    the lowest-index cell containing it (within LOCATE_TOL), searched
    among the cells whose x-extent, widened by that tolerance, holds it.
    """

    def __init__(self, model):
        import scipy.sparse as sp

        from .quadrature import interval_rule

        mesh = model.mesh
        space = model.W
        xmin, xmax, ymin, ymax = mesh.bbox
        self.xmin = xmin
        num_columns = max(2, int(round((xmax - xmin) / mesh.h_min())))
        self.columns = np.linspace(xmin, xmax, num_columns + 1)
        n = len(self.columns)
        t, w = interval_rule(2 * FRONT_SAMPLES - 1)
        ys = ymin + t * (ymax - ymin)
        cx = mesh.cell_coords[..., 0]
        lo = np.minimum(np.minimum(cx[:, 0], cx[:, 1]), cx[:, 2])
        hi = np.maximum(np.maximum(cx[:, 0], cx[:, 1]), cx[:, 2])
        reach = 4 * LOCATE_TOL * (hi - lo)  # a hit within LOCATE_TOL is within 3 LOCATE_TOL widths
        # each cell's candidate columns are a run, lo - reach <= column <= hi + reach;
        # the (column, candidate cell) pairs run column by column, cells ascending
        first_col = np.searchsorted(self.columns, lo - reach)
        runs = np.searchsorted(self.columns, hi + reach, "right") - first_col
        cell = np.repeat(np.arange(len(runs)), runs)
        col = first_col[cell] + np.arange(len(cell)) - (np.cumsum(runs) - runs)[cell]
        order = np.argsort(col, kind="stable")
        col, cand = col[order], cell[order]
        # reference coordinates Jinv (p - p0), affine in y along a column: (pairs, ys) each
        _, _, Jinv = mesh.jacobians()
        J, p0 = Jinv[cand], mesh.cell_coords[cand, 0]
        dx = (self.columns[col] - p0[:, 0])[:, None]
        dy = ys - p0[:, 1, None]
        r0 = J[:, 0, 0, None] * dx + J[:, 0, 1, None] * dy
        r1 = J[:, 1, 0, None] * dx + J[:, 1, 1, None] * dy
        pair, k = np.nonzero((r0 >= -LOCATE_TOL) & (r1 >= -LOCATE_TOL) & (r0 + r1 <= 1.0 + LOCATE_TOL))
        # a point's first hit is its lowest cell
        found, first = np.unique(col[pair] * len(ys) + k, return_index=True)
        if len(found) < n * len(ys):
            p = np.setdiff1d(np.arange(n * len(ys)), found)[0]
            x, y = self.columns[p // len(ys)], ys[p % len(ys)]
            raise ValueError(f"front sample point ({x}, {y}) not inside the mesh")
        pair, k = pair[first], k[first]
        bv, _ = space.element.tabulate(np.stack([r0[pair, k], r1[pair, k]], axis=-1))  # (points, cell dofs)
        # one sparse apply per step: row i = depth average over column i,
        # its samples' cell dofs in sample order
        row_len = len(ys) * bv.shape[1]
        self.sampler = sp.csr_matrix(
            ((np.tile(w, n)[:, None] * bv).ravel(), space.cell_dofs[cand[pair]].ravel(),
             np.arange(0, n * row_len + 1, row_len)),
            shape=(n, space.dim),
        )

    def depth_averages(self, phi):
        return self.sampler @ phi

    def position(self, phi):
        avg = self.depth_averages(phi)
        hits = np.flatnonzero(avg >= FRONT_THRESHOLD)
        return float(self.columns[hits[-1]]) if len(hits) else float(self.xmin)


class Engine:
    """Accumulates the discrete budget along a run, reading each velocity
    u = Z psi through psi, K = psi^T S psi / 2 (S = Z^T M Z); div_inf alone
    reads u.  Without particles Ep, Es and the particle columns stay 0."""

    def __init__(self, model, state0):
        self._attach(model)
        self.K_half0 = self._kinetic(state0.psi_0)
        self.Ev = self.Es = self.Ep0 = self.m_p0 = self.base_exchange = 0.0
        if self.turbidity:
            self.Ep0 = model.potential_energy(state0.phi)
            self.m_p0 = model.integral_w(state0.phi)
            self.base_exchange = self._on_psi(model.baroclinic, state0.phi, state0.psi_0)

    @classmethod
    def restored(cls, model, scalars):
        """Rebuild an engine from checkpointed ACCUMULATORS scalars."""
        eng = cls.__new__(cls)
        eng._attach(model)
        for name in ACCUMULATORS:
            setattr(eng, name, scalars[name])
        return eng

    def _attach(self, model):
        self.model = model
        self.turbidity = model.physics.mode == "turbidity"
        self.front = FrontTracker(model) if self.turbidity else None

    def _kinetic(self, psi):
        return 0.5 * float(psi @ (self.model.systems["momentum"].static @ psi))

    def _on_psi(self, form, w, psi):
        """(Lc w) . Z psi for the form L, (B w) . Z psi for Cb: Z^T Lc = L and
        Z^T B = Cb on the psi rows, and Z^T Lc is zero on the harmonic ones."""
        return float((form @ w)[self.model.psi_dofs] @ psi[:len(self.model.psi_dofs)])

    def update(self, prev_state, new_state):
        """Ledger row for the step prev_state -> new_state, every term from
        the two states: eps_v = nu (Lc om^{k+1}) . (u^{k+1/2} + u^{k+3/2})/2,
        eps_s = u_s <phi', 1> - kappa <grad phi', e_g> and the mass residual
        <phi^{k+1} - phi^k, 1> + dt u_s int_{Gamma3} phi', phi' = (phi^k + phi^{k+1})/2."""
        model = self.model
        dt = model.time.dt
        if new_state.k != prev_state.k + 1:
            raise ValueError("ledger update needs consecutive states")
        psi_mid = 0.5 * (prev_state.psi_0 + new_state.psi_0)
        eps_v = model.nu * self._on_psi(model.L, new_state.omega, psi_mid)
        K = self._kinetic(new_state.psi_0)
        phi = new_state.phi
        Ep = eps_s = mass_residual = exchange = ratio = mdot_s = x_f = phi_min = phi_max = 0.0
        if self.turbidity:
            u_s = model.physics.settling_velocity
            phi_mid = 0.5 * (phi + prev_state.phi)
            mass_residual = (model.integral_w(phi - prev_state.phi)
                             + dt * u_s * model.bottom_integral(phi_mid))
            eps_s = u_s * model.integral_w(phi_mid) - model.kappa * float(model.grad_dot_g @ phi_mid)
            exchange = self._on_psi(model.baroclinic, phi, new_state.psi_0)
            Ep = model.potential_energy(phi)
            # the suspended mass ratio and the settling outflux -int_{Gamma3} phi u_s
            ratio = model.integral_w(phi) / self.m_p0 if self.m_p0 != 0.0 else 0.0
            mdot_s = -u_s * model.bottom_integral(phi)
            x_f = self.front.position(phi)
            phi_min, phi_max = float(phi.min()), float(phi.max())
        self.Ev += dt * eps_v
        self.Es += dt * eps_s
        E_res = K + Ep + self.Ev + self.Es - self.K_half0 - self.Ep0
        identity = 0.5 * dt * (exchange - self.base_exchange)
        return LedgerRow(
            step=new_state.k, t=new_state.k * dt, K=K, Ep=Ep, eps_v=eps_v, eps_s=eps_s,
            Ev=self.Ev, Es=self.Es, E_res=E_res,
            enstrophy=model.enstrophy(new_state.omega),
            total_vorticity=model.total_vorticity(new_state.omega),
            m_p_ratio=ratio, mdot_s=mdot_s, x_f=x_f, phi_min=phi_min, phi_max=phi_max,
            div_inf=model.div_inf(new_state.u_half),
            mass_residual=mass_residual,
            eres_gap=E_res - identity,
            exchange=exchange,
        )
