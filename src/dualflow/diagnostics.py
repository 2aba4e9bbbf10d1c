"""Discrete energy budget, residual audit, and turbidity observables.

The ledger tracks, per step,

    K^{k+1/2} + Ep^k + Ev^k + Es^{k-1/2} - K^{1/2} - Ep^0  =  E_res^k,

where Ev and Es are the time-integrated viscous and settling dissipation
rates.  The telescoped budget identity pins E_res^k to

    (dt/2) (<phi^k e_g, u^{k+1/2}> - <phi^0 e_g, u^{1/2}>),

which the engine re-evaluates independently each step; the gap between
the two is reported as `eres_gap` and is solver-precision small.  E_res
is therefore purely the staggering mismatch and scales linearly in dt.
Without particles Ep = Es = 0 and the right side is 0, so `eres_gap`
is E_res itself.
"""

from dataclasses import dataclass

import numpy as np

CSV_COLUMNS = (
    "step", "t", "K", "Ep", "eps_v", "eps_s", "Ev", "Es", "E_res",
    "enstrophy", "total_vorticity", "m_p_ratio", "mdot_s", "x_f",
    "phi_min", "phi_max", "div_inf",
)

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
    # audit fields (not part of the CSV schema)
    mass_residual: float = 0.0
    eres_gap: float = 0.0
    exchange: float = 0.0

    def csv_values(self):
        return [getattr(self, name) for name in CSV_COLUMNS]


def suspended_mass(model, phi, m_p0):
    """Ratio of current to initial particle mass."""
    if m_p0 == 0.0:
        raise ValueError("initial particle mass is zero; ratio undefined")
    return model.integral_w(phi.coefficients) / m_p0


def sedimentation_rate(model, phi):
    """Settling outflux through the bottom wall: -int_{Gamma3} phi u_s."""
    return -model.physics.settling_velocity * model.bottom_integral(phi.coefficients)


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
        t, w = interval_rule(2 * FRONT_SAMPLES - 1)
        ys = ymin + t * (ymax - ymin)
        lo, hi = mesh.cell_coords[..., 0].min(axis=1), mesh.cell_coords[..., 0].max(axis=1)
        reach = 4 * LOCATE_TOL * (hi - lo)  # a hit within LOCATE_TOL is within 3 LOCATE_TOL widths
        col, cand = np.nonzero((lo - reach <= self.columns[:, None]) & (self.columns[:, None] <= hi + reach))
        # every (column, candidate cell) pair gets the reference coordinates of the column's points
        pts = np.stack(np.broadcast_arrays(self.columns[col, None], ys), axis=-1)  # (pairs, ys, 2)
        _, _, Jinv = mesh.jacobians()
        refs = (Jinv[cand, None] @ (pts - mesh.cell_coords[cand, None, 0])[..., None])[..., 0]
        pair, k = np.nonzero((refs >= -LOCATE_TOL).all(axis=-1) & (refs.sum(axis=-1) <= 1.0 + LOCATE_TOL))
        # pairs run column by column, cells ascending: a point's first hit is its lowest cell
        found, first = np.unique(col[pair] * len(ys) + k, return_index=True)
        missing = np.setdiff1d(np.arange(len(self.columns) * len(ys)), found)
        if len(missing):
            x, y = self.columns[missing[0] // len(ys)], ys[missing[0] % len(ys)]
            raise ValueError(f"front sample point ({x}, {y}) not inside the mesh")
        pair, k = pair[first], k[first]
        bv, _ = space.element.tabulate(refs[pair, k])  # (points, cell dofs)
        # one sparse apply per step: row i = depth average over column i
        rows = np.repeat(np.arange(len(self.columns)), len(ys) * bv.shape[1])
        vals = np.tile(w, len(self.columns))[:, None] * bv
        self.sampler = sp.csr_matrix(
            (vals.ravel(), (rows, space.cell_dofs[cand[pair]].ravel())),
            shape=(len(self.columns), space.dim),
        )

    def depth_averages(self, phi):
        return self.sampler @ phi.coefficients

    def position(self, phi):
        avg = self.depth_averages(phi)
        hits = np.flatnonzero(avg >= FRONT_THRESHOLD)
        return float(self.columns[hits[-1]]) if len(hits) else float(self.xmin)


class Engine:
    """Accumulates the discrete budget along a run.  Without particles
    (homogeneous mode) Ep, Es and the particle columns stay 0."""

    def __init__(self, model, state0):
        self._attach(model)
        self.K_half0 = model.kinetic_energy(state0.u_half)
        self.Ev = self.Es = self.Ep0 = self.m_p0 = self.base_exchange = 0.0
        if self.turbidity:
            self.Ep0 = model.potential_energy(state0.phi)
            self.m_p0 = model.integral_w(state0.phi.coefficients)
            b0 = model.buoyancy @ state0.phi.coefficients
            self.base_exchange = float(b0 @ state0.u_half.coefficients)

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

    def update(self, prev_state, new_state, audit):
        """Ledger row for the step prev_state -> new_state."""
        model = self.model
        dt = model.time.dt
        if new_state.k != prev_state.k + 1:
            raise ValueError("ledger update needs consecutive states")
        k = new_state.k
        self.Ev += dt * audit.eps_v
        self.Es += dt * audit.eps_s
        K = model.kinetic_energy(new_state.u_half)
        phi = new_state.phi
        Ep = ratio = mdot_s = x_f = phi_min = phi_max = 0.0
        if self.turbidity:
            Ep = model.potential_energy(phi)
            ratio = suspended_mass(model, phi, self.m_p0) if self.m_p0 != 0.0 else 0.0
            mdot_s = sedimentation_rate(model, phi)
            x_f = self.front.position(phi)
            phi_min, phi_max = float(phi.coefficients.min()), float(phi.coefficients.max())
        E_res = K + Ep + self.Ev + self.Es - self.K_half0 - self.Ep0
        identity = 0.5 * dt * (audit.exchange - self.base_exchange)
        return LedgerRow(
            step=k, t=k * dt, K=K, Ep=Ep, eps_v=audit.eps_v, eps_s=audit.eps_s,
            Ev=self.Ev, Es=self.Es, E_res=E_res,
            enstrophy=model.enstrophy(new_state.omega),
            total_vorticity=model.total_vorticity(new_state.omega),
            m_p_ratio=ratio, mdot_s=mdot_s, x_f=x_f, phi_min=phi_min, phi_max=phi_max,
            div_inf=audit.div_inf,
            mass_residual=audit.mass_residual,
            eres_gap=E_res - identity,
            exchange=audit.exchange,
        )
