"""Staggered dual-field time integration.

Vorticity, pressure and particle concentration live at integer time
levels, velocity at half levels.  After an implicit fixed-point startup
for u^{1/2}, every step is a fixed sequence of single linear solves:

  1. weak curl recovery       N om~ = <u^{k+1/2}, curl xi>
  2. particle transport       (M/dt + K/2) phi^{k+1} = (M/dt - K/2) phi^k
  3. vorticity transport      (N/dt + (C + nu L)/2) om^{k+1} = ... + sources
  4. momentum                 (M/dt + R/2) u^{k+3/2} - D^T p = f,  D u = 0

with C = (G^T - G)/2 the skew convection by u^{k+1/2}, assembled once
and shared by steps 2 and 3, K = C + settling drift and wall terms +
diffusion, and R the (exactly skew) rotation.  The skewness of R and C
is what keeps kinetic energy and enstrophy free of artificial
dissipation.

Every discrete field is a float64 coefficient vector, on W = CG_N
(omega, phi, om~), U = RT_N (u), Q = DG_{N-1} (p) or the stream-function
unknowns (psi): SimulationState holds them, and Model's solves and
functionals take and return them; the spaces are Model's.

Model owns every static operator and every linear system, by name an
assemble.System in Model.systems: it builds each once, from the fixed
physics and time step, at its construction.  The pressure, which only
snapshots use, has no system: it is solved on a spanning tree of the
cells (assemble.PressureTree), which Model builds on first use and
driver.run in set-up when it writes snapshots.  Of the velocity space
it assembles only D and the topological curl Z: the RT mass M, the
buoyancy B and the rotation R are applied per cell
(Model.velocity, an assemble.VelocityForms), for the pressure residual,
the kinetic energy, the startup projection and the torus corner, and
nothing in the time step applies them.  A step assembles only C and
the rotation and otherwise multiplies, all in W: the weak curl's load,
the momentum load (step 4a below) and the baroclinic and wall sources.
The weak curl Lc[a, k] = <curl w_k, u_a> is M Z, which no run forms,
the curl of a CG function lying in RT exactly (the exact sequence
below), so the weak curl of u = Z psi has the load Lc^T Z psi = L psi,
with psi on its CG dofs.

No matrix is factored or formed inside the time loop: each per-step
system owns one CSR matrix, S + scale K, whose values a step refills in
place,

  transport   S = N/dt + (drift + kappa L)/2,  K = C,          scale 1/2
  vorticity   S = (N/dt + nu L/2) on iw,       K = C on iw,    scale 1/2
  momentum    S = Z^T M Z = L on psi,          K = Z^T R Z,    scale dt/2

Each S is value arithmetic on the one (W, W) cell pattern, and each
system gathers S, and each step K, onto its own pattern by one index;
the vorticity system takes the weak curl's restriction to iw, its index
arrays and that index.
The momentum S is L: by the exact sequence below Z^T M Z is the
curl-curl form, and on the torus the curls are orthogonal to the
constant velocities H, so its border is zero but for the corner
H^T M H.  K is exactly skew: C, and Z^T R Z assembled per cell
(assemble.assemble_rotation).  On the torus its border, the harmonic
columns Z^T R H, is linear in omega alone, since H holds the constants
e_x, e_y: (Z^T R e_j)_k = -<omega, e_j . grad w_k>, two static forms
built once, and the corner e_x^T R e_y = -<omega, 1>.  No step applies
R to a velocity.  Each System but vorticity factors its S once,
and its solve is refined against that factor (linsolve.lu_solve), one
mat-vec and one triangular solve per pass, none without K (curl).  The
vorticity S is near N/dt, N/dt itself when nu = 0, so it refines
against the weak curl's factor of N seen as one of N/dt
(linsolve.ScaledLU), and a run factors one matrix fewer.  A fallback
factors the same matrix afresh, and a failure names its system.  All three solve for the midpoint m = (x^{k+1} +
x^k)/2: transport and vorticity A m = (N/dt) x^k + s/2, with s the
sources, and momentum step 4a below, multiplied by dt, so that one
factor of L on psi serves dt and the startup's dt/2.  A pass cuts the
residual by a factor of about 3700 (transport, vorticity) to 50000
(momentum) on the desk, and of about 100 on the box, so the passes count
how far the start is from the solution: every per-step solve starts
from the mean of x^k and the Lagrange extrapolation to x^{k+1} of the n
levels the state holds, x^k and up to LEVELS = 6 earlier ones,

  m0 = sum_j w_j x^{k-j},   w_0 = (1 + n)/2,   w_j = (-1)^j C(n, j + 1)/2,

which meets m to order n: from a full history

  m0 = 4 x^k - 10.5 x^{k-1} + 17.5 x^{k-2} - 17.5 x^{k-3} + 10.5 x^{k-4}
       - 3.5 x^{k-5} + 0.5 x^{k-6},

close enough that one pass reaches the roundoff floor, and in the first
steps from what history there is: three levels give 2 x^k - 1.5 x^{k-1}
+ 0.5 x^{k-2}, two 1.5 x^k - 0.5 x^{k-1}, one x^k itself.  For
momentum x is psi^{k+1/2}.  The start sets the cost, not the answer.

Step 4 is solved in the divergence-free subspace.  By the exact sequence
CG_N -> RT_N -> DG_{N-1}, every discretely divergence-free velocity with
zero normal trace is u = Z psi, with Z the discrete curl: on the channel
psi ranges over the CG dofs off the walls, on the torus over all CG dofs
but one plus the two constant (harmonic) velocities.  Every state holds
psi^{k+1/2}, u^{k+1/2} = Z psi^{k+1/2} bit for bit, so the load's
Z^T M u and Z^T R u are S psi and K psi, and with tau = dt/2

  4a. stream function   (S + tau K) m = S psi^{k+1/2} + tau g,   psi^{k+3/2} = 2 m - psi^{k+1/2}
  4b. pressure          D_r^T p = A u - f on the free dofs,  zero mean

with g = Z^T (B phi^{k+1} - nu Lc om^{k+1}) formed in W: Z^T Lc = L on
the psi rows and zero on the torus's harmonic rows, and Z^T B = -Cb^T =
Cb on the psi rows, whose functions vanish on the walls.  D u = 0 holds
by construction and is still checked to 1e-10 every step.  A step
solves only 4a: Model.pressure solves 4b where a snapshot is written,
exactly and with nothing factored, as its right side is a discrete
gradient: cell by cell along a spanning tree of the cells.
The startup projects the initial velocity, which need not be Z psi (the
Taylor-Green u^0 is an RT interpolant), onto psi^0 = S^-1 Z^T M u^0
once, and each of its passes is 4a over dt/2 from psi^0.

Both modes take this one step.  The homogeneous mode (periodic box, no
particles) skips steps 1-2, the baroclinic and wall sources of step 3
and the buoyancy of step 4, and uses a prescribed viscosity instead of
Gr^(-1/2).  A step returns the new state, its solver reports and the
weak curl of its step 1, which a snapshot of the step writes, and keeps
no budget: diagnostics.Engine computes every ledger term from two
consecutive states' stream functions and the same W forms.
"""

import math
from dataclasses import dataclass, fields
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp

from . import assemble
from .linsolve import RTOL, SolverError, SolverReport, lu_solve, project_out_constant
from .mesh import TAG_BOTTOM, TAG_LEFT, TAG_RIGHT, WALL_TAGS, ParameterError
from .spaces import (
    constant_coefficients,
    constant_velocities,
    free_dofs,
    interpolate,
    load_vector,
    make_space,
    normal_trace_dofs,
    wall_trace_dofs,
)

MODES = ("turbidity", "homogeneous")
DIV_TOL = 1e-10
STARTUP_TOL = 1e-10      # relative update at which the startup fixed point stops
STARTUP_MAX_ITER = 25    # startup passes before StartupError
STEP_TOL = 1e-9          # a t_end within STEP_TOL steps of a whole number of steps is that number


class StartupError(RuntimeError):
    pass


@dataclass(frozen=True)
class PhysicsConfig:
    mode: str = "turbidity"
    grashof: float = 5.0e6
    schmidt: float = 1.0
    settling_velocity: float = 0.02
    nu: float = 0.0  # homogeneous mode only

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError("mode", f"must be one of {', '.join(MODES)}, got {self.mode!r}")
        for name, value in (("grashof", self.grashof), ("schmidt", self.schmidt)):
            if not value > 0:
                raise ParameterError(name, f"must be positive, got {value}")
        for name, value in (("settling_velocity", self.settling_velocity), ("nu", self.nu)):
            if not value >= 0:
                raise ParameterError(name, f"must be nonnegative, got {value}")
        # the rates they give: Gr Sc^2 can leave the floats where neither value does
        for name, rate, formula in (("grashof", "viscosity Gr^(-1/2)", lambda: 1.0 / math.sqrt(self.grashof)),
                                    ("schmidt", "particle diffusivity (Gr Sc^2)^(-1/2)",
                                     lambda: self.particle_diffusivity)):
            try:
                finite = 0.0 < formula() < math.inf
            except (OverflowError, ZeroDivisionError):
                finite = False
            if not finite:
                raise ParameterError(name, f"must give a finite positive {rate}, which grashof = "
                                     f"{self.grashof} and schmidt = {self.schmidt} do not")

    @property
    def effective_viscosity(self):
        return 1.0 / math.sqrt(self.grashof) if self.mode == "turbidity" else self.nu

    @property
    def particle_diffusivity(self):
        return 1.0 / math.sqrt(self.grashof * self.schmidt**2)


@dataclass(frozen=True)
class TimeConfig:
    dt: float
    t_end: float

    def __post_init__(self):
        if not self.dt > 0:
            raise ParameterError("dt", f"must be positive, got {self.dt}")
        if not self.t_end >= self.dt:
            raise ParameterError("t_end", f"must be at least one time step, got {self.t_end}")
        if self.num_steps is None:
            raise ParameterError("t_end", "must be a whole number of time steps, "
                                 f"got t_end / dt = {self.t_end / self.dt:.10g}")

    @property
    def num_steps(self):
        """The steps of length dt to t_end; None, which construction refuses,
        if t_end / dt is not finite or not within STEP_TOL of a whole number."""
        ratio = self.t_end / self.dt
        if not math.isfinite(ratio):
            return None
        n = math.floor(ratio + STEP_TOL)
        return n if ratio - n <= STEP_TOL else None


@dataclass
class SimulationState:
    """The state a step reads, every field a float64 coefficient vector: the
    fields at their levels, psi_0, which the momentum step and the ledger
    read, then the earlier levels that the step's starts extrapolate from,
    newest first: step k holds min(k, LEVELS) of each, x^{k-1}, ... and
    psi^{k-1/2}, ..., none before the run's first level.  A checkpoint
    holds all of it but u_half = Z psi_0, as vectors() gives it and
    restore() takes it back."""

    k: int
    u_half: np.ndarray             # velocity at t^{k+1/2}, on U
    omega: np.ndarray              # vorticity at t^k, on W
    phi: np.ndarray = None         # particle concentration at t^k, on W (turbidity mode)
    phi_past: tuple = ()           # phi^{k-1}, phi^{k-2}, ...
    omega_past: tuple = ()         # omega^{k-1}, omega^{k-2}, ... on iw
    psi_0: np.ndarray = None       # psi^{k+1/2}, the momentum solve's unknowns: u_half = Z psi_0
    psi_past: tuple = ()           # psi^{k-1/2}, psi^{k-3/2}, ...

    def vectors(self):
        """{name: vector} of every field but k and u_half, the state's own
        arrays, each earlier-levels stack joined into one vector, newest
        level first; a field that the mode or the step leaves empty is left
        out."""
        out = {}
        for f in fields(self)[2:]:  # all but k and u_half
            x = getattr(self, f.name)
            if isinstance(x, tuple):
                x = np.concatenate(x) if x else None
            if x is not None:
                out[f.name] = x
        return out


# the earlier levels of each field that a state holds once the run is that
# many steps in, which a step hands on and a restored state must hold
# (restore).  Fewer leave the box at two passes per solve; more amplify
# roundoff (the weights' magnitudes sum to 2^(n - 1))
LEVELS = 6


def restore(model, k, vectors):
    """The state at step k of `model`'s run from its vectors(), which it
    holds as they are, with u_half = Z psi_0, the step's own expression:
    the saved state's bits.  Raises ValueError naming the step and the
    first field that is missing, extra or of the wrong length."""
    held, turbidity = min(k, LEVELS), model.physics.mode == "turbidity"
    n_w, n_psi = model.W.dim, model.Z.shape[1]
    sizes = {"omega": n_w, "phi": turbidity * n_w, "phi_past": turbidity * held * n_w,
             "omega_past": held * len(model.iw), "psi_0": n_psi, "psi_past": held * n_psi}
    lengths = {name: n for name, n in sizes.items() if n}
    where = f"a {model.physics.mode} state at step {k}"
    for name in {**lengths, **vectors}:
        if name not in vectors:
            raise ValueError(f"field {name!r}, which {where} holds, is missing")
        if name not in lengths:
            raise ValueError(f"field {name!r} is not a field of {where}")
        if len(vectors[name]) != lengths[name]:
            raise ValueError(f"field {name!r} has {len(vectors[name])} values where {where} "
                             f"holds {lengths[name]}")
    past = {name: tuple(np.split(vectors[name], held)) if name in lengths else ()
            for name in ("phi_past", "omega_past", "psi_past")}
    return SimulationState(k=k, u_half=model.Z @ vectors["psi_0"], psi_0=vectors["psi_0"],
                           omega=vectors["omega"], phi=vectors["phi"] if turbidity else None, **past)


class Model:
    """Spaces, static operators and the named linear systems of one run,
    all built at construction from the physics and time step it is
    constructed with; the pressure's tree of cells and its D_r, on first
    use.  Its solves and functionals read and return coefficient vectors
    on W, U and Q."""

    def __init__(self, mesh, degree, physics, time):
        if physics.mode == "turbidity" and mesh.periodic:
            raise ValueError("turbidity mode needs a tagged channel mesh")
        if physics.mode == "homogeneous" and not mesh.periodic:
            raise ValueError("homogeneous mode runs on periodic meshes")
        self.mesh = mesh
        self.degree = degree
        self.physics = physics
        self.time = time
        self.nu = physics.effective_viscosity
        self.kappa = physics.particle_diffusivity if physics.mode == "turbidity" else 0.0

        self.W = make_space(mesh, "CG", degree)
        self.U = make_space(mesh, "RT", degree)
        self.Q = make_space(mesh, "DG", degree - 1)

        # both are empty on a torus
        self.u_fixed = normal_trace_dofs(self.U)
        self.w_fixed = wall_trace_dofs(self.W, (TAG_RIGHT, TAG_LEFT))
        self.iu = free_dofs(self.U, self.u_fixed)
        self.iw = free_dofs(self.W, self.w_fixed)

        self.velocity = assemble.VelocityForms(self.W, self.U)  # M, R and B, applied per cell
        self.Nw = assemble.assemble_mass(self.W)
        self.L = assemble.assemble_curlcurl(self.W)
        self.D = assemble.assemble_div(self.U, self.Q)
        self.curl = assemble.curl_matrix(self.W, self.U)
        self.Nw_dt = (1.0 / time.dt) * self.Nw

        self.ones_w = constant_coefficients(self.W)
        self.area = mesh.total_area()
        self.Nw_1 = self.Nw @ self.ones_w  # <w_i, 1>
        self.q_integrals = assemble.assemble_integrals(self.Q)  # <q_i, 1>, for the pressure's mean
        y = interpolate(self.W, lambda x, y: y)  # exact: y lies in CG_N
        self.Nw_y = self.Nw @ y  # <w_i, y>

        # the static parts below are values on the (W, W) cell pattern,
        # which Nw, L and the drift lie on; a step adds a skew part.  The
        # vorticity static, near N/dt, refines against the weak curl's N
        Nw_dt, L = self.Nw_dt.data, self.L.data
        on_cells = assemble.System.on_cells
        curl = on_cells("curl", self.W, self.Nw.data, self.iw)
        self.systems = {"curl": curl, "vorticity": curl.sharing_factor(
            "vorticity", Nw_dt + 0.5 * (self.nu * L), 1.0 / time.dt)}

        # the constant (harmonic) velocities e_x, e_y, which the torus's stream function misses
        self.harmonic = corner = self.border = None
        if mesh.periodic:
            self.harmonic = constant_velocities(self.U)
            corner = self.harmonic.T @ np.column_stack([self.velocity.apply(a=h) for h in self.harmonic.T])
        self.Z, self.psi_dofs = self._stream_basis(self.curl)
        self.systems["momentum"] = on_cells("momentum", self.W, L, self.psi_dofs, corner)
        if mesh.periodic:
            # the harmonic columns of Z^T R Z are static forms in omega:
            # (Z^T R e_j)_k = <omega x e_j, curl w_k> = <omega, -e_j . grad w_k>
            self.border = sp.vstack(
                [assemble.assemble_directional_gradient(self.W, e, transposed=True)[self.psi_dofs]
                 for e in ((-1.0, 0.0), (0.0, -1.0))], format="csr")

        if physics.mode == "turbidity":
            bottom = assemble.assemble_wall_mass(self.W, TAG_BOTTOM)
            self.drift = assemble.assemble_particle_drift(physics.settling_velocity, self.U, self.W, bottom)
            self.baroclinic = assemble.assemble_baroclinic(self.W)
            self.neumann = assemble.assemble_vorticity_neumann(self.W)
            # B_bottom^T 1: the integral over Gamma3 of each CG function
            self.bottom_weights = bottom.T @ self.ones_w
            self.grad_dot_g = -(self.L @ y)  # <grad w_i, e_g>, e_g = -grad y
            self.systems["transport"] = on_cells(
                "transport", self.W, Nw_dt + 0.5 * (self.drift.data + self.kappa * L))

    def _stream_basis(self, Z):
        """Z, the discrete curl, restricted to a basis of the divergence-free
        velocities with zero normal trace (U.dim x n_psi), then the harmonic
        velocities; and the CG dofs whose curls it takes."""
        if self.mesh.periodic:
            # psi is defined up to a constant: drop CG dof 0
            dofs = np.arange(1, self.W.dim)
            Z = sp.hstack([Z[:, dofs], sp.csc_matrix(self.harmonic)]).tocsr()
        else:
            dofs = free_dofs(self.W, wall_trace_dofs(self.W, WALL_TAGS))
            Z = Z[:, dofs].tocsr()
        expected = len(self.iu) - (self.Q.dim - 1)
        if Z.shape[1] != expected:
            raise ValueError(
                f"the stream-function basis has {Z.shape[1]} functions but the mesh has "
                f"{expected} divergence-free velocities: a channel mesh must be simply "
                "connected and a periodic one a torus"
            )
        return Z, dofs

    # -- the pressure's divergence and spanning tree, built on first use

    @cached_property
    def D_r(self):
        return self.D if self.mesh.periodic else self.D[:, self.iu].tocsr()  # a torus fixes no dof

    @cached_property
    def pressure_tree(self):
        return assemble.PressureTree(self.D_r, self.U, self.Q, self.iu)

    # -- scalar functionals of coefficient vectors ---------------------------

    def integral_w(self, coef):
        """<f, 1> for a CG coefficient vector."""
        return float(self.Nw_1 @ coef)

    def kinetic_energy(self, u):
        return self.velocity.energy(u)

    def enstrophy(self, omega):
        return 0.5 * float(omega @ (self.Nw @ omega))

    def total_vorticity(self, omega):
        return self.integral_w(omega)

    def potential_energy(self, phi):
        return float(phi @ self.Nw_y)

    def bottom_integral(self, coef):
        """int over Gamma3 of a CG field (assembly quadrature)."""
        return float(self.bottom_weights @ coef)

    def div_inf(self, u):
        return float(np.max(np.abs(self.D @ u)))

    # -- sub-solves: coefficient vectors in, coefficient vectors out ---------

    def curl_h(self, psi):
        """Weak curl recovery of u = Z psi: om~ on W with <om~, xi> = <u, curl xi>,
        whose load Lc^T Z psi is L psi, psi on psi_dofs (the torus's harmonic
        amplitudes drop out: curls are orthogonal to the constants)."""
        w = np.zeros(self.W.dim)
        w[self.psi_dofs] = psi[:len(self.psi_dofs)]
        coef = np.zeros(self.W.dim)
        coef[self.iw], rep = self.systems["curl"].solve((self.L @ w)[self.iw])
        return coef, rep

    def solve_transport(self, C, phi, m0):
        """Particle step: midpoint skew transport plus diffusion, with C the
        skew convection by the midpoint velocity.  With A = N/dt + K/2 the
        rhs (N/dt - K/2) phi is 2 (N/dt) phi - A phi: the midpoint m solves
        A m = (N/dt) phi, from m0, and phi' = 2 m - phi.  Reports the
        midpoint solve."""
        m, rep = self.systems["transport"].solve(self.Nw_dt @ phi, x0=m0, scale=0.5, skew_values=C)
        return 2.0 * m - phi, rep

    def solve_vorticity(self, C, omega, m0, phi_mid=None, omega_tilde=None):
        """Vorticity step: skew convection C, midpoint viscosity, wall/baroclinic
        sources s, solved for the midpoint on iw from m0 as in solve_transport,
        A m = (N/dt) om + s/2."""
        rhs = self.Nw_dt @ omega  # omega is 0 off iw
        if phi_mid is not None:
            rhs = rhs + 0.5 * (self.baroclinic @ phi_mid)
        if omega_tilde is not None:
            rhs = rhs + (0.5 * self.nu) * (self.neumann @ omega_tilde)
        coef = np.zeros(self.W.dim)
        m, rep = self.systems["vorticity"].solve(rhs[self.iw], x0=m0, scale=0.5, skew_values=C)
        coef[self.iw] = 2.0 * m - omega[self.iw]
        return coef, rep

    def _rotation(self, omega):
        """The momentum system's skew part at omega: Z^T R Z per cell and, on
        the torus, its harmonic columns Z^T R H from the static border forms,
        two mat-vecs, whose corner e_x^T R e_y is -<omega, 1>."""
        K = assemble.assemble_rotation(omega, self.W, self.U)
        if self.border is None:
            return K, None
        s = self.Nw_1 @ omega
        return K, np.concatenate([(self.border @ omega).reshape(2, -1).T, [[0.0, -s], [s, 0.0]]])

    def solve_momentum(self, omega, psi, phi=None, m0=None, dt=None):
        """Momentum step 4a over dt (the run's if None) from the stream
        function psi of u = Z psi, with the rotation at omega and the
        buoyancy of phi: the midpoint m solves (S + tau K) m = S psi + tau g,
        tau = dt/2, from m0 against the factor of S, and psi' = 2 m - psi.
        Returns (u', psi', report of the midpoint solve), residual / dt."""
        dt = self.time.dt if dt is None else dt
        system = self.systems["momentum"]
        v = self.L @ omega
        v *= -self.nu
        if phi is not None:
            v += self.baroclinic @ phi
        rhs = system.static @ psi
        rhs[:len(self.psi_dofs)] += (0.5 * dt) * v[self.psi_dofs]
        K, X = self._rotation(omega)
        m, rep = system.solve(rhs, x0=m0, scale=0.5 * dt, skew_values=K, border=X)
        rep.residual /= dt
        psi = 2.0 * m - psi
        return self.Z @ psi, psi, rep

    def pressure(self, omega, u_old, u, dt, phi=None):
        """Step 4b for the momentum step from u_old to its solution u: p with zero
        mean and D_r^T p = r on the free dofs, r = M ((u - u_old)/dt + nu
        curl omega) + R (u + u_old)/2 - B phi the step's residual without
        its pressure, which holds only if u solves the step.  r is one
        per-cell pass of the velocity forms (VelocityForms.apply: one GEMM,
        one scatter), p the solve on the tree of cells (PressureTree), and
        the mean one dot product with <q_i, 1>.
        Returns (p, report with ||r - D_r^T p||_inf), or refuses when that
        exceeds RTOL (1 + ||r||_inf)."""
        r = self.velocity.apply(a=(u - u_old) / dt + self.nu * (self.curl @ omega),
                                omega=omega, v=0.5 * (u + u_old), phi=None if phi is None else -phi)
        r = r[self.iu]
        p = project_out_constant(self.pressure_tree.solve(r), self.q_integrals, self.area)
        rep = SolverReport(refinements=0, residual=float(np.max(np.abs(r - self.D_r.T @ p))))
        if not rep.residual <= RTOL * (1.0 + float(np.max(np.abs(r)))):
            raise SolverError(f"pressure: ||r - D^T p||_inf = {rep.residual:.3e}: "
                              "the velocity does not solve the momentum step")
        return p, rep


def _midpoint_weights(n):
    """The weights of a midpoint start from n levels, newest first: the
    Lagrange extrapolation from t = 0, -1, ..., 1 - n to t = 1 has the
    weights (-1)^j C(n, j + 1), and the start is the mean of it and the
    newest level.  Each is a multiple of 1/2, exact in floating point."""
    return [0.5 * (1 + n), *(0.5 * (-1) ** j * math.comb(n, j + 1) for j in range(1, n))]


def _midpoint_start(levels):
    """The start of a midpoint solve, m = (x' + x)/2, from `levels`, the
    values x, x^{k-1}, ..., newest first: the mean of x and the Lagrange
    extrapolation of the n levels to x', which meets m to order n (the
    polynomial at the midpoint itself meets it to order n - 1).  An
    elementwise sum: no reduction, so its bits depend on the levels
    alone."""
    return sum(w * x for w, x in zip(_midpoint_weights(len(levels)), levels))


def _push(x, past):
    """The earlier levels a step hands on: x, then `past`, at most LEVELS
    of them; none without x."""
    return () if x is None else (x, *past)[:LEVELS]


def _check_div(model, u, where):
    d = model.div_inf(u)
    if d > DIV_TOL:
        raise SolverError(f"{where}: ||D u||_inf = {d:.3e} exceeds {DIV_TOL}")


def step(state, model):
    """Advance one step; returns (state, reports, omega_tilde): the new
    state, which holds the levels its own step's starts read, the
    SolverReport of each solve by name and the weak curl of
    step 1, om~ = curl_h psi^{k+1/2}.  Without particles (homogeneous mode)
    steps 1-2 are skipped and omega_tilde is None.  The step keeps no
    budget."""
    u, omega, phi = state.u_half, state.omega, state.phi
    reports = {}
    phi_new = phi_mid = omega_tilde = None
    omega_k = omega[model.iw]
    try:
        # one skew convection C(u) serves both transport solves
        C = assemble.assemble_vorticity_convection(u, model.U, model.W)
        if phi is not None:
            omega_tilde, reports["curl"] = model.curl_h(state.psi_0)      # step 1
            phi_new, reports["transport"] = model.solve_transport(        # step 2
                C, phi, _midpoint_start((phi, *state.phi_past)))
            phi_mid = 0.5 * (phi_new + phi)
        omega_new, reports["vorticity"] = model.solve_vorticity(          # step 3
            C, omega, _midpoint_start((omega_k, *state.omega_past)),
            phi_mid=phi_mid, omega_tilde=omega_tilde
        )
        u_new, psi, reports["momentum"] = model.solve_momentum(          # step 4
            omega_new, state.psi_0, phi=phi_new,
            m0=_midpoint_start((state.psi_0, *state.psi_past)))
        _check_div(model, u_new, "step 4")
    except SolverError as exc:
        raise SolverError(f"step {state.k + 1} failed: {exc}") from exc
    new = SimulationState(k=state.k + 1, u_half=u_new, omega=omega_new, phi=phi_new,
                          phi_past=_push(phi, state.phi_past),
                          omega_past=_push(omega_k, state.omega_past),
                          psi_0=psi, psi_past=_push(state.psi_0, state.psi_past))
    return new, reports, omega_tilde


# ---------------------------------------------------------------------------
# Initial conditions and startup


@dataclass
class LockInitialCondition:
    """Smoothed lock indicator: phi0 = (1 - tanh(x/delta)) / 2.

    The interface width defaults to twice the smallest edge length; the
    profile is L2-projected, so small over/undershoots are possible and
    are recorded rather than clipped.  (N/dt) phi0 = <f, w>/dt is refined
    against the transport factor, of N/dt + (drift + kappa L)/2.
    """

    interface_width: float = None

    def __post_init__(self):
        if self.interface_width is not None and not self.interface_width > 0:
            raise ParameterError("interface_width", f"must be positive, got {self.interface_width}")

    def build(self, model):
        delta = 2.0 * model.mesh.h_min() if self.interface_width is None else self.interface_width
        load = load_vector(model.W, lambda x, y: 0.5 * (1.0 - np.tanh(x / delta)),
                           2 * model.degree + 2)
        coef, rep = lu_solve(model.Nw_dt, load / model.time.dt, model.systems["transport"].lu)
        return np.zeros(model.U.dim), coef, rep.fallback


@dataclass
class TaylorGreenInitialCondition:
    """Decaying vortex array on [0, 2pi]^2 with exact solution available.

    u^0 is the RT interpolant, which initialize projects onto Z psi^0; the
    start is consistent, omega^0 = curl_h psi^0: the exact vorticity,
    interpolated apart from u^0, made the error in time first order.
    """

    def velocity(self, t, nu):
        decay = math.exp(-2.0 * nu * t)

        def fn(x, y):
            return (np.sin(x) * np.cos(y) * decay, -np.cos(x) * np.sin(y) * decay)

        return fn

    def build(self, model):
        return interpolate(model.U, self.velocity(0.0, model.physics.nu)), None, 0


@dataclass
class RandomSolenoidalInitialCondition:
    """Random stream function -> exactly divergence-free RT velocity."""

    seed: int = 0

    def __post_init__(self):
        if not self.seed >= 0:
            raise ParameterError("seed", f"must be nonnegative, got {self.seed}")

    def build(self, model):
        rng = np.random.default_rng(self.seed)
        psi = rng.standard_normal(model.W.dim)
        u0 = model.curl @ psi
        scale = math.sqrt(2.0 * model.kinetic_energy(u0))
        return u0 / scale, None, 0  # unit L2 norm


# the initial conditions by the name a configuration gives them
INITIAL_CONDITIONS = {"lock": LockInitialCondition, "taylor_green": TaylorGreenInitialCondition,
                      "random": RandomSolenoidalInitialCondition}


def initial_condition(params):
    """The initial condition of kind params["kind"], built from the entries
    of `params` that it reads, its fields."""
    cls = INITIAL_CONDITIONS[params["kind"]]
    return cls(**{f.name: params[f.name] for f in fields(cls)})


@dataclass
class StartupReport:
    iterations: int
    update: float
    fallbacks: int = 0  # solves that missed RTOL against their static factor, the IC's included
    pressure: object = None  # () -> (p, report): the last pass's pressure, solved on call


def initialize(model, ic):
    """Implicit startup: fixed-point iteration for u^{1/2} over [0, dt/2]
    from ic.build(model) = (u0 on U, phi0 on W or None, fallbacks of its
    solves).

    u0 is first projected onto the stream-function basis, psi0 = S^-1 Z^T M
    u0, one solve against the momentum system's own factor, and replaced
    by Z psi0 (the Taylor-Green u0 is an RT interpolant, not Z psi); the
    vorticity starts as its weak curl, omega0 = curl_h psi0.  Each pass is
    the step's momentum solve over dt/2 from psi0, with the rotation
    frozen at the current vorticity iterate and (in turbidity mode)
    buoyancy frozen at phi^0, from the previous pass's midpoint but for
    the first, cold; the vorticity iterate is then refreshed as the weak
    curl of the midpoint.  The state holds the last pass's psi as psi_0.
    No pass solves a pressure: the report's `pressure` solves the last
    pass's when called (snapshot 0, check).
    """
    u0, phi0, fallbacks = ic.build(model)
    Z = model.Z
    psi0, rep = model.systems["momentum"].solve(Z.T @ model.velocity.apply(a=u0))
    u0 = Z @ psi0
    omega0, crep = model.curl_h(psi0)
    fallbacks += rep.fallback + crep.fallback
    dt = 0.5 * model.time.dt
    omega_star = omega0
    u_prev, m0 = u0, None
    for it in range(1, STARTUP_MAX_ITER + 1):
        u_new, psi, rep = model.solve_momentum(omega_star, psi0, phi=phi0, m0=m0, dt=dt)
        fallbacks += rep.fallback
        scale = float(np.linalg.norm(u_new))
        rel = float(np.linalg.norm(u_new - u_prev)) / (scale if scale > 0 else 1.0)
        u_prev = u_new
        if rel <= STARTUP_TOL:
            break
        m0 = 0.5 * (psi + psi0)
        omega_star, rep = model.curl_h(m0)
        fallbacks += rep.fallback
    else:
        raise StartupError(
            f"startup fixed point did not reach {STARTUP_TOL:.1e} within "
            f"{STARTUP_MAX_ITER} iterations (last update {rel:.3e})"
        )
    _check_div(model, u_prev, "startup")
    return (SimulationState(k=0, u_half=u_prev, omega=omega0, phi=phi0, psi_0=psi),
            StartupReport(iterations=it, update=rel, fallbacks=fallbacks,
                          pressure=partial(model.pressure, omega_star, u0, u_prev, dt, phi=phi0)))
