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

Model owns every static operator: it builds each once, at construction,
from the fixed physics and time step.  A step assembles only C and the
rotation and otherwise multiplies: the viscous vector l = Lc om, the
curl rhs Lc^T u, the buoyancy b = B phi and the baroclinic and wall
sources.

No matrix is factored inside the time loop, and the only sparse
matrices formed there are the per-step systems, one CSR matrix each,
S + scale K on the pattern of S (assemble.SkewSystem):

  transport   S = N/dt + (drift + kappa L)/2,  K = C,          scale 1/2
  vorticity   S = (N/dt + nu L/2) on iw,       K = C on iw,    scale 1/2
  momentum    S = Z^T M Z,                     K = Z^T R Z,    scale tau/2

Model lays each S onto its pattern once; a step adds the values of K,
which are exactly skew: C's on the CG pattern, taken at the free dofs
iw by an index built once, and Z^T R Z, assembled per cell in
stream-function space (assemble.assemble_rotation) with the torus's
harmonic border.  R itself is never formed: R u is applied per cell.
Model factors each S once, and every per-step solve is refined against
that factor (linsolve.lu_solve), one mat-vec and one triangular solve
per pass; a solve that falls back factors the same matrix afresh.
Step 4 is solved multiplied by its step tau, as (Z^T M Z + tau/2 Z^T R
Z) psi = tau Z^T f, so the one factor of Z^T M Z serves both dt and the
startup's dt/2.

Step 4 is solved in the divergence-free subspace.  By the exact sequence
CG_N -> RT_N -> DG_{N-1}, every discretely divergence-free velocity with
zero normal trace is u = Z psi, with Z the discrete curl: on the channel
psi ranges over the CG dofs off the walls, on the torus over all CG dofs
but one plus the two constant (harmonic) velocities.  So

  4a. stream function   Z^T (M/dt + R/2) Z psi = Z^T f,   u = Z psi
  4b. pressure          D D^T p = D (A u - f),  one dof pinned, zero mean

with Z^T M Z static and Z^T R Z exactly skew.  D u = 0 holds by
construction and is still checked to 1e-10 every step.

Both modes take this one step.  The homogeneous mode (periodic box, no
particles) skips steps 1-2, the baroclinic and wall sources of step 3,
the buoyancy of step 4 and the particle bookkeeping, and uses a
prescribed viscosity instead of Gr^(-1/2).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import assemble
from .linsolve import CachedLU, SolverError, SolverReport, lu_solve, project_out_constant
from .mesh import TAG_BOTTOM, TAG_LEFT, TAG_RIGHT, WALL_TAGS
from .spaces import (
    Field,
    constant_coefficients,
    free_dofs,
    interpolate,
    make_space,
    normal_trace_dofs,
    project,
    wall_trace_dofs,
)

MODES = ("turbidity", "homogeneous")
DIV_TOL = 1e-10


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
    startup_tol: float = 1e-10
    startup_max_iter: int = 25

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"time step must be positive, got {self.dt}")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least one time step")
        if self.startup_max_iter < 1:
            raise ValueError(f"startup_max_iter must be at least 1, got {self.startup_max_iter}")
        if not self.startup_tol > 0:  # refuses NaN too; inf takes one pass
            raise ValueError(f"startup_tol must be positive, got {self.startup_tol}")

    @property
    def num_steps(self):
        return max(1, int(math.floor(self.t_end / self.dt + 1e-9)))


@dataclass
class SimulationState:
    k: int
    u_half: Field            # velocity at t^{k+1/2}
    omega: Field             # vorticity at t^k
    phi: Field = None        # particle concentration at t^k (turbidity mode)
    p_bar: Field = None      # total pressure at t^k (diagnostic)
    omega_tilde: Field = None  # weak curl of u at t^{k-1/2} (diagnostic)


@dataclass
class StepAudit:
    """Per-step solver reports and budget bookkeeping."""

    reports: dict
    div_inf: float
    eps_v: float
    exchange: float = 0.0    # <phi^{k+1} e_g, u^{k+3/2}>
    eps_s: float = 0.0
    mass_residual: float = 0.0
    phi_mid_bottom: float = 0.0  # int_{Gamma3} phi^{k+1/2}


class Model:
    """Spaces, static operators and cached factorizations for one run,
    all built once from the physics and time step it is constructed with."""

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

        if mesh.periodic:
            self.u_fixed = np.array([], dtype=np.int64)
            self.w_fixed = np.array([], dtype=np.int64)
        else:
            self.u_fixed = normal_trace_dofs(self.U)
            self.w_fixed = wall_trace_dofs(self.W, (TAG_RIGHT, TAG_LEFT))
        self.iu = free_dofs(self.U, self.u_fixed)
        self.iw = free_dofs(self.W, self.w_fixed)

        self.M = assemble.assemble_mass(self.U, self.qdeg)
        self.Nw = assemble.assemble_mass(self.W, self.qdeg)
        self.L = assemble.assemble_curlcurl(self.W, self.qdeg)
        self.D = assemble.assemble_div(self.U, self.Q, self.qdeg)
        self.MQ = assemble.assemble_mass(self.Q, self.qdeg)
        self.Lc = assemble.assemble_weak_curl(self.U, self.W, self.qdeg)
        self.Lct = self.Lc.T.tocsr()
        self.nu_L = self.nu * self.L
        self.Nw_dt = (1.0 / time.dt) * self.Nw

        self.ones_w = constant_coefficients(self.W)
        self.ones_q = constant_coefficients(self.Q)
        self.area = mesh.total_area()
        self.y_w = interpolate(self.W, lambda x, y: y).coefficients

        self.Nw_c = self.Nw[self.iw][:, self.iw].tocsr()
        self.Nw_c_dt = (1.0 / time.dt) * self.Nw_c
        self._lu_curl = CachedLU(self.Nw_c)
        # the static part of the vorticity matrix; a step adds C/2
        self.vorticity_static = (self.Nw_c_dt + 0.5 * self.nu_L[self.iw][:, self.iw]).tocsr()
        self._lu_vorticity = CachedLU(self.vorticity_static)
        self.vorticity = assemble.SkewSystem(self.vorticity_static, self.W, self.iw)

        # the constant (harmonic) velocities, which the torus's stream function misses
        self.harmonic = None
        if mesh.periodic:
            self.harmonic = np.column_stack([interpolate(self.U, lambda x, y, e=e: e).coefficients
                                             for e in ((1.0, 0.0), (0.0, 1.0))])
        self.Z, psi_dofs = self._stream_basis()
        self.Zt = self.Z.T.tocsr()
        self.ZMZ = (self.Zt @ self.M @ self.Z).tocsr()
        self._lu_momentum = CachedLU(self.ZMZ)
        # the static part of the stream-function matrix; a step adds tau/2 Z^T R Z
        border = 0 if self.harmonic is None else self.harmonic.shape[1]
        self.momentum = assemble.SkewSystem(self.ZMZ, self.W, psi_dofs, border)
        self.D_r = self.D[:, self.iu].tocsr()
        self.D_rt = self.D_r.T.tocsr()
        # D D^T annihilates the constant pressure: pin dof 0
        self.DDt = (self.D_r @ self.D_rt)[1:, 1:].tocsr()
        self._lu_pressure = CachedLU(self.DDt)

        if physics.mode == "turbidity":
            self.kappa_L = self.kappa * self.L
            self.drift = assemble.assemble_particle_drift(
                physics.settling_velocity, self.U, self.W, self.qdeg, self.bdeg
            )
            self.buoyancy = assemble.assemble_buoyancy(self.U, self.W, self.qdeg)
            self.baroclinic = assemble.assemble_baroclinic(self.W, self.qdeg)
            self.neumann = assemble.assemble_vorticity_neumann(self.W, self.bdeg)
            self.B_bottom = assemble.assemble_wall_mass(self.W, TAG_BOTTOM, self.bdeg)
            self.grad_dot_g = assemble.assemble_gradient_dot(self.W, self.qdeg)
            # the static part of the transport matrix; a step adds C/2
            self.transport_static = (self.Nw_dt + 0.5 * (self.drift + self.kappa_L)).tocsr()
            self._lu_transport = CachedLU(self.transport_static)
            self.transport = assemble.SkewSystem(self.transport_static, self.W)

    def _stream_basis(self):
        """Z: the discrete curl restricted to a basis of the divergence-free
        velocities with zero normal trace (U.dim x n_psi), then the harmonic
        velocities; and the CG dofs whose curls it takes."""
        Z = assemble.curl_matrix(self.W, self.U)
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

    # -- scalar functionals -------------------------------------------------

    def integral_w(self, coef):
        """<f, 1> for a CG coefficient vector."""
        return float(self.ones_w @ (self.Nw @ coef))

    def kinetic_energy(self, u):
        return 0.5 * float(u.coefficients @ (self.M @ u.coefficients))

    def enstrophy(self, omega):
        return 0.5 * float(omega.coefficients @ (self.Nw @ omega.coefficients))

    def total_vorticity(self, omega):
        return self.integral_w(omega.coefficients)

    def potential_energy(self, phi):
        return float(phi.coefficients @ (self.Nw @ self.y_w))

    def bottom_integral(self, coef):
        """int over Gamma3 of a CG field (assembly quadrature)."""
        return float(self.ones_w @ (self.B_bottom @ coef))

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
        rhs (N/dt - K/2) phi is 2 (N/dt) phi - A phi."""
        A = self.transport.matrix(0.5, C)
        x = phi.coefficients
        rhs = 2.0 * (self.Nw_dt @ x) - A @ x
        coef, rep = lu_solve(A, rhs, self._lu_transport)
        return Field(self.W, coef), rep

    def solve_vorticity(self, C, omega, phi_mid=None, omega_tilde=None):
        """Vorticity step: skew convection C, midpoint viscosity, wall/baroclinic sources."""
        A = self.vorticity.matrix(0.5, C)
        x = omega.coefficients[self.iw]
        rhs = 2.0 * (self.Nw_c_dt @ x) - A @ x
        if phi_mid is not None:
            rhs = rhs + (self.baroclinic @ phi_mid.coefficients)[self.iw]
        if omega_tilde is not None:
            rhs = rhs + self.nu * (self.neumann @ omega_tilde.coefficients)[self.iw]
        coef = np.zeros(self.W.dim)
        sol, rep = lu_solve(A, rhs, self._lu_vorticity)
        coef[self.iw] = sol
        return Field(self.W, coef), rep

    def solve_momentum(self, omega, u_old, dt, b=None):
        """Momentum step with rotation at the midpoint velocity and the
        buoyancy vector b: stream function solve for u = Z psi, then
        pressure recovery.  The stream function system is solved multiplied
        by dt, against the factor of Z^T M Z.  Returns (u, p, l, report),
        l = Lc omega, with the residual of the unscaled system."""
        def rotate(v):  # R v, applied per cell
            return assemble.apply_rotation(omega, self.U, self.qdeg, v)

        K = assemble.assemble_rotation(omega, self.U, self.qdeg)
        # on the torus, Z^T R Z also has the harmonic columns Z^T R H
        X = None if self.harmonic is None else self.Zt @ np.column_stack([rotate(h) for h in self.harmonic.T])
        l = self.Lc @ omega.coefficients
        uo = u_old.coefficients
        f = (self.M @ uo) / dt - 0.5 * rotate(uo) - self.nu * l
        if b is not None:
            f = f + b
        A = self.momentum.matrix(0.5 * dt, K, X)
        psi, rep = lu_solve(A, dt * (self.Zt @ f), self._lu_momentum)
        u = self.Z @ psi
        # D^T p = A u - f on the free dofs; the residual lies in range(D^T)
        r = ((self.M @ u) / dt + 0.5 * rotate(u) - f)[self.iu]
        p = np.zeros(self.Q.dim)
        p[1:], prep = lu_solve(self.DDt, (self.D_r @ r)[1:], self._lu_pressure)
        p = project_out_constant(p, self.MQ, self.ones_q, self.area)
        res = max(rep.residual / dt, float(np.max(np.abs(r - self.D_rt @ p))))
        report = SolverReport(refinements=rep.refinements + prep.refinements, residual=res,
                              fallback=rep.fallback or prep.fallback)
        return Field(self.U, u), Field(self.Q, p), l, report


def _check_div(model, u, where):
    d = model.div_inf(u)
    if d > DIV_TOL:
        raise SolverError(f"{where}: ||D u||_inf = {d:.3e} exceeds {DIV_TOL}")
    return d


def step(state, model):
    """Advance one step; returns (state, audit).  Without particles
    (homogeneous mode) steps 1-2 and the particle bookkeeping are skipped."""
    dt = model.time.dt
    u, omega, phi = state.u_half, state.omega, state.phi
    particles = model.physics.mode == "turbidity"
    reports = {}
    phi_new = phi_mid = omega_tilde = b = None
    try:
        # one skew convection C(u) serves both transport solves
        C = assemble.assemble_vorticity_convection(u, model.W, model.qdeg)
        if particles:
            omega_tilde, reports["curl"] = model.curl_h(u)                # step 1
            phi_new, reports["transport"] = model.solve_transport(C, phi)  # step 2
            phi_mid = Field(model.W, 0.5 * (phi_new.coefficients + phi.coefficients))
            b = model.buoyancy @ phi_new.coefficients
        omega_new, reports["vorticity"] = model.solve_vorticity(          # step 3
            C, omega, phi_mid=phi_mid, omega_tilde=omega_tilde
        )
        u_new, p_new, l_vec, reports["momentum"] = model.solve_momentum(  # step 4
            omega_new, u, dt, b=b
        )
        div = _check_div(model, u_new, "step 4")
    except SolverError as exc:
        raise SolverError(f"step {state.k + 1} failed: {exc}") from exc

    eps_v = model.nu * float(l_vec @ (0.5 * (u.coefficients + u_new.coefficients)))
    audit = StepAudit(reports=reports, div_inf=div, eps_v=eps_v)
    if particles:
        u_s = model.physics.settling_velocity
        audit.phi_mid_bottom = model.bottom_integral(phi_mid.coefficients)
        audit.mass_residual = (
            model.integral_w(phi_new.coefficients - phi.coefficients)
            + dt * u_s * audit.phi_mid_bottom
        )
        audit.eps_s = u_s * model.integral_w(phi_mid.coefficients) - model.kappa * float(
            model.grad_dot_g @ phi_mid.coefficients
        )
        audit.exchange = float(b @ u_new.coefficients)
    new_state = SimulationState(
        k=state.k + 1, u_half=u_new, omega=omega_new, phi=phi_new,
        p_bar=p_new, omega_tilde=omega_tilde,
    )
    return new_state, audit


# ---------------------------------------------------------------------------
# Initial conditions and startup


@dataclass
class LockInitialCondition:
    """Smoothed lock indicator: phi0 = (1 - tanh(x/delta)) / 2.

    The interface width defaults to twice the smallest edge length; the
    profile is L2-projected, so small over/undershoots are possible and
    are recorded rather than clipped.
    """

    interface_width: float = None

    def build(self, model):
        delta = self.interface_width if self.interface_width else 2.0 * model.mesh.h_min()
        phi0 = project(model.W, lambda x, y: 0.5 * (1.0 - np.tanh(x / delta)), model.qdeg)
        u0 = Field(model.U, np.zeros(model.U.dim))
        om0 = Field(model.W, np.zeros(model.W.dim))
        return u0, om0, phi0


@dataclass
class TaylorGreenInitialCondition:
    """Decaying vortex array on [0, 2pi]^2 with exact solution available."""

    def velocity(self, t, nu):
        decay = math.exp(-2.0 * nu * t)

        def fn(x, y):
            return (np.sin(x) * np.cos(y) * decay, -np.cos(x) * np.sin(y) * decay)

        return fn

    def vorticity(self, t, nu):
        decay = math.exp(-2.0 * nu * t)
        return lambda x, y: 2.0 * np.sin(x) * np.sin(y) * decay

    def build(self, model):
        nu = model.physics.nu
        u0 = interpolate(model.U, self.velocity(0.0, nu))
        om0 = interpolate(model.W, self.vorticity(0.0, nu))
        return u0, om0, None


@dataclass
class RandomSolenoidalInitialCondition:
    """Random stream function -> exactly divergence-free RT velocity."""

    seed: int = 0

    def build(self, model):
        rng = np.random.default_rng(self.seed)
        psi = rng.standard_normal(model.W.dim)
        u0 = Field(model.U, assemble.curl_matrix(model.W, model.U) @ psi)
        scale = math.sqrt(2.0 * model.kinetic_energy(u0))
        u0 = Field(model.U, u0.coefficients / scale)  # unit L2 norm
        om0, _ = model.curl_h(u0)
        return u0, om0, None


@dataclass
class StartupReport:
    iterations: int
    update: float
    fallbacks: int = 0  # momentum solves that missed RTOL against the static factor


def initialize(model, ic):
    """Implicit startup: fixed-point iteration for u^{1/2} over [0, dt/2].

    Each pass solves the momentum step with the rotation frozen at the
    current vorticity iterate and (in turbidity mode) buoyancy frozen at
    phi^0; the vorticity iterate is then refreshed as the weak curl of
    the midpoint velocity.
    """
    u0, omega0, phi0 = ic.build(model)
    b0 = model.buoyancy @ phi0.coefficients if phi0 is not None else None
    tol, cap = model.time.startup_tol, model.time.startup_max_iter
    omega_star = omega0
    u_prev = u0
    p = Field(model.Q, np.zeros(model.Q.dim))
    converged = False
    iterations = fallbacks = 0
    for it in range(1, cap + 1):
        u_new, p, _, rep = model.solve_momentum(omega_star, u0, 0.5 * model.time.dt, b=b0)
        fallbacks += rep.fallback
        du = u_new.coefficients - u_prev.coefficients
        scale = float(np.linalg.norm(u_new.coefficients))
        rel = float(np.linalg.norm(du)) / (scale if scale > 0 else 1.0)
        u_prev = u_new
        iterations = it
        if rel <= tol:
            converged = True
            break
        mid = Field(model.U, 0.5 * (u0.coefficients + u_new.coefficients))
        omega_star, _ = model.curl_h(mid)
    if not converged:
        raise StartupError(
            f"startup fixed point did not reach {tol:.1e} within {cap} iterations "
            f"(last update {rel:.3e})"
        )
    _check_div(model, u_prev, "startup")
    omega_tilde, _ = model.curl_h(u_prev)
    state = SimulationState(
        k=0, u_half=u_prev, omega=omega0, phi=phi0, p_bar=p, omega_tilde=omega_tilde,
    )
    return state, StartupReport(iterations=iterations, update=rel, fallbacks=fallbacks)

