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

Model owns every static operator: it builds each once, from the fixed
physics and time step, at construction but for the pressure system
D D^T and its factor, which only snapshots solve: those are built on
first use, and driver.run builds them in set-up when it writes
snapshots.  A step assembles only C and the rotation and otherwise
multiplies: the viscous vector l = Lc om, the curl rhs Lc^T u, the
buoyancy b = B phi and the baroclinic and wall sources.  The weak curl
Lc[a, k] = <curl w_k, u_a> is M Z: the curl of a CG function lies in
RT exactly (the exact sequence below).

No matrix is factored inside the time loop, and the only sparse
matrices formed there are the per-step systems, one CSR matrix each,
S + scale K (assemble.SkewSystem):

  transport   S = N/dt + (drift + kappa L)/2,  K = C,          scale 1/2
  vorticity   S = (N/dt + nu L/2) on iw,       K = C on iw,    scale 1/2
  momentum    S = Z^T M Z = L on psi,          K = Z^T R Z,    scale tau/2

Each S is value arithmetic on the one (W, W) cell pattern, and each
system gathers S, and each step K, onto its own pattern by one index.
The momentum S is L: by the exact sequence below Z^T M Z is the
curl-curl form, and on the torus the curls are orthogonal to the
constant velocities H, so its border is zero but for the corner
H^T M H.  K is exactly skew: C, and Z^T R Z assembled per cell
(assemble.assemble_rotation).  On the torus its border, the harmonic
columns Z^T R H, is linear in omega alone, since H holds the constants
e_x, e_y: (Z^T R e_j)_k = -<omega, e_j . grad w_k>, two static forms
built once, and the corner e_x^T R e_y = -<omega, 1>.  R u is applied
per cell, to the old velocity alone.  Model factors each S once, and
every per-step solve is refined against that factor (linsolve.lu_solve),
one mat-vec and one triangular solve per pass; a solve that falls back
factors the same matrix afresh.  Transport and vorticity solve for the
midpoint m = (x^{k+1} + x^k)/2, A m = (N/dt) x^k + s/2 with s the
sources, from x^k, which the state holds; momentum starts from S^-1 b,
as a start from the previous stream function saves no pass.  Step 4 is
solved multiplied by tau, so one factor of L on psi serves dt and dt/2.

Step 4 is solved in the divergence-free subspace.  By the exact sequence
CG_N -> RT_N -> DG_{N-1}, every discretely divergence-free velocity with
zero normal trace is u = Z psi, with Z the discrete curl: on the channel
psi ranges over the CG dofs off the walls, on the torus over all CG dofs
but one plus the two constant (harmonic) velocities.  So

  4a. stream function   Z^T (M/dt + R/2) Z psi = Z^T f,   u = Z psi
  4b. pressure          D D^T p = D (A u - f),  one dof pinned, zero mean

with Z^T M Z static and Z^T R Z exactly skew.  D u = 0 holds by
construction and is still checked to 1e-10 every step.  A step solves
only 4a: Model.pressure solves 4b where a snapshot is written.

Both modes take this one step.  The homogeneous mode (periodic box, no
particles) skips steps 1-2, the baroclinic and wall sources of step 3
and the buoyancy of step 4, and uses a prescribed viscosity instead of
Gr^(-1/2).  A step returns the new state, its solver reports and the
weak curl of its step 1, which a snapshot of the step writes, and keeps
no budget: diagnostics.Engine computes every ledger term from two
consecutive states.
"""

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp

from . import assemble
from .linsolve import RTOL, CachedLU, SolverError, lu_solve, project_out_constant
from .mesh import TAG_BOTTOM, TAG_LEFT, TAG_RIGHT, WALL_TAGS
from .spaces import (
    Field,
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
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "turbidity":
            if self.grashof <= 0 or self.schmidt <= 0:
                raise ValueError("Grashof and Schmidt numbers must be positive")
            if self.settling_velocity < 0:
                raise ValueError("settling velocity must be nonnegative")
        elif self.nu < 0:
            raise ValueError("viscosity must be nonnegative")

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
        if self.dt <= 0:
            raise ValueError(f"time step must be positive, got {self.dt}")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least one time step")

    @property
    def num_steps(self):
        return max(1, int(math.floor(self.t_end / self.dt + 1e-9)))


@dataclass
class SimulationState:
    """The state a step reads, all that a checkpoint holds (io._FIELD_ORDER)."""

    k: int
    u_half: Field            # velocity at t^{k+1/2}
    omega: Field             # vorticity at t^k
    phi: Field = None        # particle concentration at t^k (turbidity mode)


class Model:
    """Spaces, static operators and cached factorizations for one run,
    all built once from the physics and time step it is constructed with:
    at construction, but for the pressure system, built on first use."""

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
        self.qdeg = 2 * degree + 2
        self.bdeg = degree + 2

        # both are empty on a torus
        self.u_fixed = normal_trace_dofs(self.U)
        self.w_fixed = wall_trace_dofs(self.W, (TAG_RIGHT, TAG_LEFT))
        self.iu = free_dofs(self.U, self.u_fixed)
        self.iw = free_dofs(self.W, self.w_fixed)

        self.M = assemble.assemble_mass(self.U, self.qdeg)
        self.Nw = assemble.assemble_mass(self.W, self.qdeg)
        self.L = assemble.assemble_curlcurl(self.W, self.qdeg)
        self.D = assemble.assemble_div(self.U, self.Q, self.qdeg)
        self.MQ = assemble.assemble_mass(self.Q, self.qdeg)
        self.curl = assemble.curl_matrix(self.W, self.U)
        self.Lc = (self.M @ self.curl).tocsr()
        self.Lct = self.Lc.T.tocsr()
        self.Nw_dt = (1.0 / time.dt) * self.Nw

        self.ones_w = constant_coefficients(self.W)
        self.ones_q = constant_coefficients(self.Q)
        self.area = mesh.total_area()
        self.Nw_1 = self.Nw @ self.ones_w  # <w_i, 1>
        y = interpolate(self.W, lambda x, y: y).coefficients  # exact: y lies in CG_N
        self.Nw_y = self.Nw @ y  # <w_i, y>

        # on a torus every CG dof is free: the restrictions are Nw and Nw/dt themselves
        self.Nw_c = self.Nw if mesh.periodic else self.Nw[self.iw][:, self.iw].tocsr()
        self.Nw_c_dt = self.Nw_dt if mesh.periodic else (1.0 / time.dt) * self.Nw_c
        self._lu_curl = CachedLU(self.Nw_c)
        # the static parts below are values on the (W, W) cell pattern,
        # which Nw, L and the drift lie on; a step adds the skew part
        Nw_dt, L = self.Nw_dt.data, self.L.data
        self.vorticity = assemble.SkewSystem(self.W, Nw_dt + 0.5 * (self.nu * L), self.iw)
        self._lu_vorticity = CachedLU(self.vorticity.static)

        # the constant (harmonic) velocities e_x, e_y, which the torus's stream function misses
        self.harmonic = corner = self.border = None
        if mesh.periodic:
            self.harmonic = constant_velocities(self.U)
            corner = self.harmonic.T @ (self.M @ self.harmonic)
        self.Z, psi_dofs = self._stream_basis(self.curl)
        self.Zt = self.Z.T.tocsr()
        self.momentum = assemble.SkewSystem(self.W, L, psi_dofs, corner)
        self._lu_momentum = CachedLU(self.momentum.static)
        if mesh.periodic:
            # the harmonic columns of Z^T R Z are static forms in omega:
            # (Z^T R e_j)_k = <omega x e_j, curl w_k> = <omega, -e_j . grad w_k>
            self.border = sp.vstack(
                [assemble.assemble_directional_gradient(self.W, e, self.qdeg, transposed=True)[psi_dofs]
                 for e in ((-1.0, 0.0), (0.0, -1.0))], format="csr")

        if physics.mode == "turbidity":
            self.drift = assemble.assemble_particle_drift(
                physics.settling_velocity, self.U, self.W, self.qdeg, self.bdeg
            )
            self.buoyancy = assemble.assemble_buoyancy(self.U, self.W, self.qdeg)
            self.baroclinic = assemble.assemble_baroclinic(self.W, self.qdeg)
            self.neumann = assemble.assemble_vorticity_neumann(self.W, self.bdeg)
            # B_bottom^T 1: the integral over Gamma3 of each CG function
            self.bottom_weights = assemble.assemble_wall_mass(self.W, TAG_BOTTOM, self.bdeg).T @ self.ones_w
            self.grad_dot_g = -(self.L @ y)  # <grad w_i, e_g>, e_g = -grad y
            self.transport = assemble.SkewSystem(
                self.W, Nw_dt + 0.5 * (self.drift.data + self.kappa * L))
            self._lu_transport = CachedLU(self.transport.static)

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

    # -- the pressure system, built on first use: only snapshots solve it,
    # and driver.run builds it in set-up for a run that writes them

    @cached_property
    def D_r(self):
        return self.D if self.mesh.periodic else self.D[:, self.iu].tocsr()  # a torus fixes no dof

    @cached_property
    def D_rt(self):
        return self.D_r.T.tocsr()

    @cached_property
    def DDt(self):
        # D D^T annihilates the constant pressure: pin dof 0
        return (self.D_r @ self.D_rt)[1:, 1:].tocsr()

    @cached_property
    def pressure_lu(self):
        return CachedLU(self.DDt)

    # -- scalar functionals -------------------------------------------------

    def integral_w(self, coef):
        """<f, 1> for a CG coefficient vector."""
        return float(self.Nw_1 @ coef)

    def kinetic_energy(self, u):
        return 0.5 * float(u.coefficients @ (self.M @ u.coefficients))

    def enstrophy(self, omega):
        return 0.5 * float(omega.coefficients @ (self.Nw @ omega.coefficients))

    def total_vorticity(self, omega):
        return self.integral_w(omega.coefficients)

    def potential_energy(self, phi):
        return float(phi.coefficients @ self.Nw_y)

    def bottom_integral(self, coef):
        """int over Gamma3 of a CG field (assembly quadrature)."""
        return float(self.bottom_weights @ coef)

    def div_inf(self, u):
        return float(np.max(np.abs(self.D @ u.coefficients)))

    # -- sub-solves ----------------------------------------------------------

    def curl_h(self, u):
        """Weak curl recovery: find om~ with <om~, xi> = <u, curl xi>."""
        r = self.Lct @ u.coefficients
        coef = np.zeros(self.W.dim)
        sol, rep = lu_solve(self.Nw_c, r[self.iw], self._lu_curl)
        coef[self.iw] = sol
        return Field(self.W, coef), rep

    def solve_transport(self, C, phi):
        """Particle step: midpoint skew transport plus diffusion, with C the
        skew convection by the midpoint velocity.  With A = N/dt + K/2 the
        rhs (N/dt - K/2) phi is 2 (N/dt) phi - A phi: the midpoint m solves
        A m = (N/dt) phi, and phi' = 2 m - phi.  Reports the midpoint solve."""
        A = self.transport.matrix(0.5, C)
        x = phi.coefficients
        m, rep = lu_solve(A, self.Nw_dt @ x, self._lu_transport, x0=x)
        return Field(self.W, 2.0 * m - x), rep

    def solve_vorticity(self, C, omega, phi_mid=None, omega_tilde=None):
        """Vorticity step: skew convection C, midpoint viscosity, wall/baroclinic
        sources s, solved for the midpoint as in solve_transport, A m = (N/dt) om + s/2."""
        A = self.vorticity.matrix(0.5, C)
        x = omega.coefficients[self.iw]
        rhs = self.Nw_c_dt @ x
        if phi_mid is not None:
            rhs = rhs + 0.5 * (self.baroclinic @ phi_mid.coefficients)[self.iw]
        if omega_tilde is not None:
            rhs = rhs + (0.5 * self.nu) * (self.neumann @ omega_tilde.coefficients)[self.iw]
        coef = np.zeros(self.W.dim)
        m, rep = lu_solve(A, rhs, self._lu_vorticity, x0=x)
        coef[self.iw] = 2.0 * m - x
        return Field(self.W, coef), rep

    def solve_momentum(self, omega, u_old, dt, b=None):
        """Momentum step with rotation at the midpoint velocity and the buoyancy
        vector b, solved for the stream function of u = Z psi multiplied by dt,
        against the factor of Z^T M Z = L on psi.  The rotation is Z^T R Z
        per cell and, on the torus, its harmonic columns from the static
        border forms: two mat-vecs and <omega, 1>; R is applied per cell
        to u_old alone.  Returns (u, report), with the residual of the
        unscaled system."""
        K = assemble.assemble_rotation(omega, self.U, self.qdeg)
        X = None
        if self.border is not None:
            # the harmonic columns Z^T R H, whose corner e_x^T R e_y is -<omega, 1>
            w = omega.coefficients
            s = self.Nw_1 @ w
            X = np.concatenate([(self.border @ w).reshape(2, -1).T, [[0.0, -s], [s, 0.0]]])
        uo = u_old.coefficients
        f = ((self.M @ uo) / dt - 0.5 * assemble.apply_rotation(omega, self.U, self.qdeg, uo)
             - self.nu * (self.Lc @ omega.coefficients))
        if b is not None:
            f = f + b
        A = self.momentum.matrix(0.5 * dt, K, X)
        psi, rep = lu_solve(A, dt * (self.Zt @ f), self._lu_momentum)
        rep.residual /= dt
        return Field(self.U, self.Z @ psi), rep

    def pressure(self, omega, u_old, u, dt, b=None):
        """Step 4b for the momentum step from u_old to its solution u: p with zero
        mean and D_r^T p = r on the free dofs, r = M (u - u_old)/dt + R (u +
        u_old)/2 + nu Lc omega - b the step's residual without its pressure,
        which holds only if u solves the step.  Returns (p, report with
        ||r - D_r^T p||_inf), or refuses when that exceeds RTOL (1 + ||r||_inf)."""
        uo, uc = u_old.coefficients, u.coefficients
        r = ((self.M @ (uc - uo)) / dt + 0.5 * assemble.apply_rotation(omega, self.U, self.qdeg, uc + uo)
             + self.nu * (self.Lc @ omega.coefficients))
        if b is not None:
            r = r - b
        r = r[self.iu]
        p = np.zeros(self.Q.dim)
        p[1:], rep = lu_solve(self.DDt, (self.D_r @ r)[1:], self.pressure_lu)
        p = project_out_constant(p, self.MQ, self.ones_q, self.area)
        rep.residual = float(np.max(np.abs(r - self.D_rt @ p)))
        if rep.residual > RTOL * (1.0 + float(np.max(np.abs(r)))):
            raise SolverError(f"pressure: ||r - D^T p||_inf = {rep.residual:.3e}: "
                              "the velocity does not solve the momentum step")
        return Field(self.Q, p), rep


def _check_div(model, u, where):
    d = model.div_inf(u)
    if d > DIV_TOL:
        raise SolverError(f"{where}: ||D u||_inf = {d:.3e} exceeds {DIV_TOL}")


def step(state, model):
    """Advance one step; returns (state, reports, omega_tilde): the new
    state, the SolverReport of each solve by name and the weak curl of
    step 1, om~ = curl_h u^{k+1/2}.  Without particles (homogeneous mode)
    steps 1-2 are skipped and omega_tilde is None.  The step keeps no
    budget."""
    u, omega, phi = state.u_half, state.omega, state.phi
    reports = {}
    phi_new = phi_mid = omega_tilde = b = None
    try:
        # one skew convection C(u) serves both transport solves
        C = assemble.assemble_vorticity_convection(u, model.W, model.qdeg)
        if phi is not None:
            omega_tilde, reports["curl"] = model.curl_h(u)                # step 1
            phi_new, reports["transport"] = model.solve_transport(C, phi)  # step 2
            phi_mid = Field(model.W, 0.5 * (phi_new.coefficients + phi.coefficients))
            b = model.buoyancy @ phi_new.coefficients
        omega_new, reports["vorticity"] = model.solve_vorticity(          # step 3
            C, omega, phi_mid=phi_mid, omega_tilde=omega_tilde
        )
        u_new, reports["momentum"] = model.solve_momentum(omega_new, u, model.time.dt, b=b)  # step 4
        _check_div(model, u_new, "step 4")
    except SolverError as exc:
        raise SolverError(f"step {state.k + 1} failed: {exc}") from exc
    return SimulationState(k=state.k + 1, u_half=u_new, omega=omega_new, phi=phi_new), reports, omega_tilde


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

    def build(self, model):
        delta = self.interface_width if self.interface_width else 2.0 * model.mesh.h_min()
        load = load_vector(model.W, lambda x, y: 0.5 * (1.0 - np.tanh(x / delta)), model.qdeg)
        coef, _ = lu_solve(model.Nw_dt, load / model.time.dt, model._lu_transport)
        phi0 = Field(model.W, coef)
        u0 = Field(model.U, np.zeros(model.U.dim))
        om0 = Field(model.W, np.zeros(model.W.dim))
        return u0, om0, phi0


@dataclass
class TaylorGreenInitialCondition:
    """Decaying vortex array on [0, 2pi]^2 with exact solution available.

    The start is consistent, omega^0 = curl_h u^0: the exact vorticity,
    interpolated apart from u^0, made the error in time first order.
    """

    def velocity(self, t, nu):
        decay = math.exp(-2.0 * nu * t)

        def fn(x, y):
            return (np.sin(x) * np.cos(y) * decay, -np.cos(x) * np.sin(y) * decay)

        return fn

    def build(self, model):
        u0 = interpolate(model.U, self.velocity(0.0, model.physics.nu))
        om0, _ = model.curl_h(u0)
        return u0, om0, None


@dataclass
class RandomSolenoidalInitialCondition:
    """Random stream function -> exactly divergence-free RT velocity."""

    seed: int = 0

    def build(self, model):
        rng = np.random.default_rng(self.seed)
        psi = rng.standard_normal(model.W.dim)
        u0 = Field(model.U, model.curl @ psi)
        scale = math.sqrt(2.0 * model.kinetic_energy(u0))
        u0 = Field(model.U, u0.coefficients / scale)  # unit L2 norm
        om0, _ = model.curl_h(u0)
        return u0, om0, None


@dataclass
class StartupReport:
    iterations: int
    update: float
    fallbacks: int = 0  # solves that missed RTOL against their static factor
    pressure: object = None  # () -> (p, report): the last pass's pressure, solved on call


def initialize(model, ic):
    """Implicit startup: fixed-point iteration for u^{1/2} over [0, dt/2].

    Each pass solves the momentum step with the rotation frozen at the
    current vorticity iterate and (in turbidity mode) buoyancy frozen at
    phi^0; the vorticity iterate is then refreshed as the weak curl of
    the midpoint velocity.  No pass solves a pressure: the report's
    `pressure` solves the last pass's when called (snapshot 0, check).
    """
    u0, omega0, phi0 = ic.build(model)
    b0 = model.buoyancy @ phi0.coefficients if phi0 is not None else None
    dt = 0.5 * model.time.dt
    omega_star = omega0
    u_prev = u0
    fallbacks = 0
    for it in range(1, STARTUP_MAX_ITER + 1):
        u_new, rep = model.solve_momentum(omega_star, u0, dt, b=b0)
        fallbacks += rep.fallback
        du = u_new.coefficients - u_prev.coefficients
        scale = float(np.linalg.norm(u_new.coefficients))
        rel = float(np.linalg.norm(du)) / (scale if scale > 0 else 1.0)
        u_prev = u_new
        if rel <= STARTUP_TOL:
            break
        mid = Field(model.U, 0.5 * (u0.coefficients + u_new.coefficients))
        omega_star, _ = model.curl_h(mid)
    else:
        raise StartupError(
            f"startup fixed point did not reach {STARTUP_TOL:.1e} within "
            f"{STARTUP_MAX_ITER} iterations (last update {rel:.3e})"
        )
    _check_div(model, u_prev, "startup")
    return (SimulationState(k=0, u_half=u_prev, omega=omega0, phi=phi0),
            StartupReport(iterations=it, update=rel, fallbacks=fallbacks,
                          pressure=partial(model.pressure, omega_star, u0, u_prev, dt, b=b0)))

