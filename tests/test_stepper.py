import dataclasses
import os

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._compressed import _cs_matrix

from dualflow import linsolve, stepper
from dualflow.assemble import assemble_buoyancy, assemble_vorticity_convection
from dualflow.config import parse_config_file
from dualflow.diagnostics import Engine
from dualflow.driver import build_model
from dualflow.mesh import (
    TAG_BOTTOM,
    ChannelGeometry,
    build_channel_mesh,
    build_periodic_rect_mesh,
    read_mesh_text,
)
from dualflow.spaces import Field, FunctionSpace, interpolate, project
from dualflow.stepper import (
    LockInitialCondition,
    Model,
    PhysicsConfig,
    RandomSolenoidalInitialCondition,
    StartupError,
    TaylorGreenInitialCondition,
    TimeConfig,
    initialize,
    step,
)

from saddle_oracle import solve_saddle
from util_rotation import convection_matrix, momentum_skew, rotation_matrix, skew_part
from util_sim1 import sim1_mesh_text


def turbidity_model(nx=20, ny=3, N=1, dt=1e-3, t_end=1.0, u_s=0.02, L=13.0, **kw):
    geom = ChannelGeometry(length=L, height=1.0, lock_length=1.0)
    mesh = build_channel_mesh(geom, nx, ny, "left")
    phys = PhysicsConfig(mode="turbidity", grashof=5e6, schmidt=1.0, settling_velocity=u_s)
    return Model(mesh, N, phys, TimeConfig(dt=dt, t_end=t_end), **kw)


def homogeneous_model(nx=8, ny=8, N=1, nu=0.0, dt=0.01, t_end=1.0, box=2 * np.pi):
    mesh = build_periodic_rect_mesh(box, box, nx, ny, "left")
    phys = PhysicsConfig(mode="homogeneous", nu=nu)
    return Model(mesh, N, phys, TimeConfig(dt=dt, t_end=t_end))


class ZeroBuoyancyIC:
    def build(self, model):
        phi0 = project(model.W, lambda x, y: 0.0, model.qdeg)
        return (
            Field(model.U, np.zeros(model.U.dim)),
            Field(model.W, np.zeros(model.W.dim)),
            phi0,
        )


class ConstantConcentrationIC:
    def __init__(self, value=1.0):
        self.value = value

    def build(self, model):
        phi0 = project(model.W, lambda x, y: self.value, model.qdeg)
        return (
            Field(model.U, np.zeros(model.U.dim)),
            Field(model.W, np.zeros(model.W.dim)),
            phi0,
        )


def test_config_validation():
    with pytest.raises(ValueError):
        PhysicsConfig(mode="turbulent")
    with pytest.raises(ValueError):
        PhysicsConfig(mode="turbidity", grashof=-1.0)
    with pytest.raises(ValueError):
        PhysicsConfig(mode="turbidity", settling_velocity=-0.1)
    with pytest.raises(ValueError):
        TimeConfig(dt=-1e-3, t_end=1.0)
    with pytest.raises(ValueError):
        TimeConfig(dt=1e-3, t_end=1e-4)


@pytest.mark.parametrize("knobs", [
    dict(startup_max_iter=0), dict(startup_max_iter=-3),
    dict(startup_tol=float("nan")), dict(startup_tol=0.0), dict(startup_tol=-1e-10),
], ids=["max_iter_0", "max_iter_neg", "tol_nan", "tol_0", "tol_neg"])
def test_startup_knobs_validated(knobs):
    """A startup that could take no pass, or never compare its update, is
    refused when configured; an infinite tolerance (one pass, as `dualflow
    check` runs it) is allowed."""
    with pytest.raises(ValueError, match="startup_"):
        TimeConfig(dt=1e-3, t_end=1.0, **knobs)
    time = dataclasses.replace(TimeConfig(dt=1e-3, t_end=1.0), startup_max_iter=1,
                               startup_tol=float("inf"))
    model = turbidity_model()
    model.time = time
    _, rep = initialize(model, LockInitialCondition())
    assert rep.iterations == 1


def test_mode_mesh_mismatch_rejected():
    geom = ChannelGeometry(length=2.0, height=1.0, lock_length=0.5)
    mesh = build_channel_mesh(geom, 4, 2)
    with pytest.raises(ValueError):
        Model(mesh, 1, PhysicsConfig(mode="homogeneous", nu=0.1), TimeConfig(dt=0.1, t_end=1.0))
    torus = build_periodic_rect_mesh(1.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        Model(torus, 1, PhysicsConfig(mode="turbidity"), TimeConfig(dt=0.1, t_end=1.0))


def test_startup_zero_buoyancy_one_iteration():
    model = turbidity_model(u_s=0.0)
    state, rep = initialize(model, ZeroBuoyancyIC())
    assert rep.iterations == 1
    assert np.max(np.abs(state.u_half.coefficients)) == 0.0


def test_startup_constant_phi_is_pressure_gradient_on_channel():
    """A uniform body force on the channel is absorbed by the pressure."""
    model = turbidity_model()
    state, _ = initialize(model, ConstantConcentrationIC(1.0))
    assert np.max(np.abs(state.u_half.coefficients)) < 1e-10
    # the pressure picked up the hydrostatic head (nonzero, linear in y)
    assert np.max(np.abs(state.p_bar.coefficients)) > 1e-4


def test_uniform_force_on_torus_gives_uniform_drift():
    """On a torus a uniform force is NOT a pressure gradient: it excites the
    constant (harmonic) velocity mode, u = dt/2 * phi * e_g."""
    model = homogeneous_model(nx=4, ny=4, box=1.0, dt=1e-3)
    phi0 = project(model.W, lambda x, y: 1.0, model.qdeg)
    om0 = Field(model.W, np.zeros(model.W.dim))
    u0 = Field(model.U, np.zeros(model.U.dim))
    b = assemble_buoyancy(model.U, model.W, model.qdeg) @ phi0.coefficients
    u_new, _, _, _ = model.solve_momentum(om0, u0, 0.5 * model.time.dt, b=b)
    drift = interpolate(model.U, lambda x, y: (np.zeros_like(x), -np.ones_like(x)))
    expected = 0.5 * model.time.dt * drift.coefficients
    assert np.max(np.abs(u_new.coefficients - expected)) < 1e-10


def test_startup_lock_exchange_converges_quickly():
    # 100-cell mesh, dt = 1e-3: well under the 20-iteration budget
    model = turbidity_model(nx=25, ny=2)
    assert model.mesh.num_cells == 100
    state, rep = initialize(model, LockInitialCondition())
    assert rep.iterations <= 20
    assert model.div_inf(state.u_half) <= 1e-10


def test_startup_nonconvergence_reported():
    model = turbidity_model()
    model.time = dataclasses.replace(model.time, startup_max_iter=1, startup_tol=1e-16)
    with pytest.raises(StartupError):
        initialize(model, LockInitialCondition())


def test_zero_state_is_fixed_point():
    model = turbidity_model(u_s=0.0)
    state, _ = initialize(model, ZeroBuoyancyIC())
    new, audit = step(state, model)
    assert np.max(np.abs(new.u_half.coefficients)) < 1e-14
    assert np.max(np.abs(new.phi.coefficients)) < 1e-14
    assert np.max(np.abs(new.omega.coefficients)) < 1e-14


def test_constant_phi_step_on_channel():
    """phi = const is transported exactly; u stays zero (pressure balance)."""
    model = turbidity_model(u_s=0.0)
    state, _ = initialize(model, ConstantConcentrationIC(0.7))
    new, audit = step(state, model)
    assert np.max(np.abs(new.phi.coefficients - state.phi.coefficients)) < 1e-10
    assert np.max(np.abs(new.u_half.coefficients)) < 1e-10


@pytest.mark.parametrize("mode", ["turbidity", "homogeneous"])
def test_quasi_linearity_single_solves(mode, monkeypatch):
    if mode == "turbidity":
        model = turbidity_model()
        state, _ = initialize(model, LockInitialCondition())
        solves = {"curl", "transport", "vorticity", "momentum"}
    else:
        model = homogeneous_model(nu=0.01)
        state, _ = initialize(model, RandomSolenoidalInitialCondition(seed=2))
        solves = {"vorticity", "momentum"}
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return lu_solve(*args, **kwargs)

    lu_solve = stepper.lu_solve
    monkeypatch.setattr(stepper, "lu_solve", counted)
    new, audit = step(state, model)
    assert set(audit.reports) == solves
    # one linear solve per sub-step, two for the momentum step (stream
    # function and pressure): no nonlinear iteration
    assert len(calls) == (5 if mode == "turbidity" else 3)
    # each against a static factor (A, b, factor)
    assert all(len(args) == 3 and args[2] is not None for args in calls)
    if mode == "homogeneous":  # steps 1-2 and the particle bookkeeping are skipped
        assert new.phi is None and new.omega_tilde is None
        assert audit.mass_residual == 0.0 and audit.exchange == 0.0


@pytest.mark.parametrize("mode", ["turbidity", "homogeneous"])
def test_step_factors_nothing(mode, factorizations):
    """Every per-step solve is refined against a factor Model built once."""
    if mode == "turbidity":
        model = turbidity_model()
        state, _ = initialize(model, LockInitialCondition())
    else:
        model = homogeneous_model(nu=0.01)
        state, _ = initialize(model, RandomSolenoidalInitialCondition(seed=2))
    factorizations.clear()  # the static factors of Model and the startup
    for _ in range(2):
        state, audit = step(state, model)
        assert not any(rep.fallback for rep in audit.reports.values())
    assert factorizations == []


def test_large_step_falls_back_to_a_fresh_factor(monkeypatch):
    """At dt = 1 the skew rotation and convection dominate N/dt, refinement
    against the static factors cannot reach the tolerance, and each such
    solve is redone with a fresh factor: reported, and as accurate and
    conservative as a direct solve."""
    model = homogeneous_model(nu=0.0, dt=1.0)
    state, _ = initialize(model, RandomSolenoidalInitialCondition(seed=3))
    K0 = model.kinetic_energy(state.u_half)
    solves = []

    def recorded(A, b, factor=None):
        x, rep = lu_solve(A, b, factor)
        solves.append((A, b, x, rep))
        return x, rep

    lu_solve = stepper.lu_solve
    monkeypatch.setattr(stepper, "lu_solve", recorded)
    for _ in range(3):
        state, audit = step(state, model)
        assert audit.reports["vorticity"].fallback and audit.reports["momentum"].fallback
    for A, b, x, rep in solves:
        assert np.max(np.abs(A @ x - b)) <= linsolve.RTOL * (1.0 + np.max(np.abs(b)))
    assert abs(model.kinetic_energy(state.u_half) - K0) <= 1e-11 * K0


def test_per_step_mass_identity_short_run():
    model = turbidity_model(nx=26, ny=2, N=2)
    state, _ = initialize(model, LockInitialCondition())
    for _ in range(5):
        state, audit = step(state, model)
        assert abs(audit.mass_residual) < 1e-12
        assert audit.div_inf <= 1e-10


def test_homogeneous_inviscid_conservation_short():
    model = homogeneous_model(nu=0.0)
    state, _ = initialize(model, RandomSolenoidalInitialCondition(seed=3))
    K0 = model.kinetic_energy(state.u_half)
    ens0 = model.enstrophy(state.omega)
    tv0 = model.total_vorticity(state.omega)
    for _ in range(20):
        state, audit = step(state, model)
        assert audit.div_inf <= 1e-10
    assert abs(model.kinetic_energy(state.u_half) - K0) <= 1e-11 * K0
    assert abs(model.enstrophy(state.omega) - ens0) <= 1e-11 * ens0
    assert abs(model.total_vorticity(state.omega) - tv0) <= 1e-12


def test_homogeneous_viscous_decay_tracks_exact_rate():
    ic = TaylorGreenInitialCondition()
    model = homogeneous_model(nx=16, ny=16, nu=0.01, dt=1e-2)
    state, _ = initialize(model, ic)
    K0 = model.kinetic_energy(state.u_half)
    n = 10
    for _ in range(n):
        state, _ = step(state, model)
    K = model.kinetic_energy(state.u_half)
    exact = np.exp(-4 * 0.01 * n * model.time.dt)  # K ~ e^{-4 nu t}
    assert abs(K / K0 - exact) < 5e-3


def test_homogeneous_ledger_rows():
    """Without particles E_res = K + Ev - K^{1/2} is the whole budget
    identity (its right side is 0), so eres_gap = E_res stays at
    solver precision and every particle column reads 0."""
    model = homogeneous_model(nx=16, ny=16, nu=0.01, dt=1e-2)
    state, _ = initialize(model, TaylorGreenInitialCondition())
    eng = Engine(model, state)
    assert eng.front is None
    for _ in range(20):
        prev = state
        state, audit = step(state, model)
        row = eng.update(prev, state, audit)
        assert abs(row.eres_gap) <= 1e-10
        assert row.eres_gap == row.E_res
        assert row.Ev > 0.0
        for name in ("Ep", "eps_s", "Es", "m_p_ratio", "mdot_s", "x_f", "phi_min", "phi_max",
                     "mass_residual", "exchange"):
            assert getattr(row, name) == 0.0, name


def taylor_green_velocity_error(nx, nu=0.01, dt=1e-2, nsteps=10):
    ic = TaylorGreenInitialCondition()
    model = homogeneous_model(nx=nx, ny=nx, nu=nu, dt=dt)
    state, _ = initialize(model, ic)
    for _ in range(nsteps):
        state, _ = step(state, model)
    t = state.k * model.time.dt + 0.5 * model.time.dt  # velocity lives at half steps
    exact = ic.velocity(t, nu)
    import util_fields as kernels

    tab = model.U.volume_data(8)
    uq = kernels.field_vec(model.U.cell_dofs, state.u_half.coefficients, tab.val)
    ex, ey = exact(tab.points[..., 0], tab.points[..., 1])
    return float(np.sqrt(np.sum(tab.weights * ((uq[..., 0] - ex) ** 2 + (uq[..., 1] - ey) ** 2))))


def test_taylor_green_error_shrinks_under_refinement():
    e8 = taylor_green_velocity_error(8)
    e16 = taylor_green_velocity_error(16)
    assert e16 < e8
    assert e8 / e16 > 1.5  # first-order velocity convergence for RT_1


# ---------------------------------------------------------------------------
# The stream-function momentum step against the saddle oracle

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")


@pytest.fixture(scope="module")
def desk():
    """configs/lock_exchange.cfg (N=2, 1000 cells) two steps into the run."""
    model = build_model(parse_config_file(os.path.join(CONFIGS, "lock_exchange.cfg")))
    state, _ = initialize(model, LockInitialCondition())
    for _ in range(2):
        state, _ = step(state, model)
    return model, state


@pytest.fixture(scope="module")
def box():
    """Viscous periodic box (N=1) a few steps into a random solenoidal start."""
    model = homogeneous_model(nx=8, ny=8, nu=0.01)
    state, _ = initialize(model, RandomSolenoidalInitialCondition(seed=5))
    for _ in range(3):
        state, _ = step(state, model)
    return model, state


def sim1_case(N):
    """The sim1 import mesh (tests/util_sim1.py), cells of several shapes
    and areas, two steps into a lock-exchange run."""
    model = Model(read_mesh_text(*sim1_mesh_text()), N, PhysicsConfig(mode="turbidity"),
                  TimeConfig(dt=1e-3, t_end=1.0))
    state, _ = initialize(model, LockInitialCondition())
    for _ in range(2):
        state, _ = step(state, model)
    return model, state


@pytest.fixture(scope="module")
def sim1_1():
    return sim1_case(1)


@pytest.fixture(scope="module")
def sim1_2():
    return sim1_case(2)


def saddle_momentum(model, omega, u_old, dt, phi_buoy=None):
    """Step 4 as the pinned-pressure velocity/pressure saddle system."""
    iu = model.iu
    R = rotation_matrix(omega, model.U, model.qdeg)
    l = model.Lc @ omega.coefficients
    R_r = R[iu][:, iu]
    Mdt = (1.0 / dt) * model.M[iu][:, iu]
    f = (Mdt - 0.5 * R_r) @ u_old.coefficients[iu] - model.nu * l[iu]
    if phi_buoy is not None:
        f = f + (assemble_buoyancy(model.U, model.W, model.qdeg) @ phi_buoy.coefficients)[iu]
    A = (Mdt + 0.5 * R_r).tocsr()
    u, p, _ = solve_saddle(A, model.D_r, f, model.MQ, model.ones_q, model.area)
    return u, p


@pytest.mark.parametrize("case", ["desk", "box"])
def test_momentum_matches_saddle_oracle(case, request):
    model, state = request.getfixturevalue(case)
    dt = model.time.dt
    b = model.buoyancy @ state.phi.coefficients if state.phi is not None else None
    u, p, _, rep = model.solve_momentum(state.omega, state.u_half, dt, b=b)
    u_ref, p_ref = saddle_momentum(model, state.omega, state.u_half, dt, phi_buoy=state.phi)
    assert np.max(np.abs(u.coefficients[model.iu] - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))
    assert np.max(np.abs(p.coefficients - p_ref)) <= 1e-10 * np.max(np.abs(p_ref))
    assert np.all(u.coefficients[model.u_fixed] == 0.0)
    assert rep.residual <= 1e-10 * (1.0 + np.max(np.abs(u_ref)) / dt)


@pytest.mark.parametrize("case", ["desk", "box"])
def test_stream_basis_structure(case, request):
    model, state = request.getfixturevalue(case)
    Z = model.Z
    assert Z.shape[1] == len(model.iu) - (model.Q.dim - 1)
    assert np.max(np.abs((model.D @ Z).toarray())) <= 1e-13
    assert Z[model.u_fixed].count_nonzero() == 0
    # the rotation block of the momentum system, torus border included
    K = skew_part(model.momentum, *momentum_skew(model, state.omega))
    assert abs(K).max() > 0
    assert abs(K + K.T).max() == 0.0


def per_step_systems(model, state, monkeypatch):
    """One step of `model` from `state`; returns the step's state and
    {name: (A, K)} of each per-step system it solved, K its skew part."""
    seen = {}
    names = {id(model._lu_momentum): "momentum", id(model._lu_vorticity): "vorticity"}
    if model.physics.mode == "turbidity":
        names[id(model._lu_transport)] = "transport"

    def recorded(A, b, factor=None):
        if id(factor) in names:
            seen[names[id(factor)]] = A
        return lu_solve(A, b, factor)

    lu_solve = stepper.lu_solve
    monkeypatch.setattr(stepper, "lu_solve", recorded)
    new, _ = step(state, model)
    monkeypatch.undo()
    C = assemble_vorticity_convection(state.u_half, model.W, model.qdeg)
    skew = {"transport": (C,), "vorticity": (C,), "momentum": momentum_skew(model, new.omega)}
    return new, {name: (A, skew_part(getattr(model, name), *skew[name])) for name, A in seen.items()}


@pytest.mark.parametrize("case", ["desk", "box", "sim1_1", "sim1_2"])
def test_per_step_operators_match_their_matrices(case, request, monkeypatch):
    """Each per-step system is one CSR matrix, equal to its defining form
    to 1e-14 relative: Z^T M Z + tau/2 (G - G^T)/2 with G = Z^T (R Z), and
    the static vorticity and transport matrices plus C/2.  Its skew part,
    scattered on its pattern, is exactly skew."""
    model, state = request.getfixturevalue(case)
    dt = model.time.dt
    new, systems = per_step_systems(model, state, monkeypatch)
    C = convection_matrix(state.u_half, model.W, model.qdeg)
    R = rotation_matrix(new.omega, model.U, model.qdeg)
    G = model.Zt @ (R @ model.Z)
    iw = model.iw
    expected = {
        "momentum": model.ZMZ + (0.5 * dt) * (0.5 * (G - G.T)),
        "vorticity": model.vorticity_static + 0.5 * C[iw][:, iw],
    }
    if model.physics.mode == "turbidity":
        expected["transport"] = model.transport_static + 0.5 * C
    assert set(systems) == set(expected)
    for name, (A, K) in systems.items():
        ref = expected[name]
        assert sp.isspmatrix_csr(A) and A.shape == ref.shape
        assert abs(A - ref).max() <= 1e-14 * abs(ref).max(), name
        assert abs(K).max() > 0
        assert (K + K.T).count_nonzero() == 0, name


@pytest.mark.parametrize("case", ["desk", "box"])
def test_step_builds_only_rotation_and_convection(case, request, monkeypatch):
    """Without a fallback a step constructs one compressed sparse matrix per
    per-step system, holding its rotation or convection, and none of the
    size of the velocity space: R is applied per cell."""
    model, state = request.getfixturevalue(case)
    built = []
    init = _cs_matrix.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.shape)

    monkeypatch.setattr(_cs_matrix, "__init__", counted)
    _, audit = step(state, model)
    monkeypatch.undo()
    assert not any(rep.fallback for rep in audit.reports.values())
    systems = [model.momentum, model.vorticity]
    if model.physics.mode == "turbidity":
        systems.append(model.transport)
    assert (model.U.dim, model.U.dim) not in built
    assert sorted(built) == sorted(system.static.shape for system in systems)


@pytest.mark.parametrize("case", ["desk", "box"])
def test_step_evaluates_no_field_at_quadrature_points(case, request, monkeypatch):
    """R and C are contractions of the coefficients with reference
    tensors: a step reads no volume tabulation."""
    model, state = request.getfixturevalue(case)
    read = []
    volume_data = FunctionSpace.volume_data

    def recorded(self, qdegree):
        read.append((self.family, qdegree))
        return volume_data(self, qdegree)

    monkeypatch.setattr(FunctionSpace, "volume_data", recorded)
    step(state, model)
    assert read == []


@pytest.mark.parametrize("case", ["desk", "box"])
def test_own_factor_solves_take_no_refinement(case, request, monkeypatch):
    """The weak-curl and pressure systems are solved against factors of
    themselves: the first solve is at the roundoff floor."""
    model, state = request.getfixturevalue(case)
    own = []

    def recorded(A, b, factor=None):
        x, rep = lu_solve(A, b, factor)
        if A is model.Nw_c or A is model.DDt:
            own.append(rep)
        return x, rep

    lu_solve = stepper.lu_solve
    monkeypatch.setattr(stepper, "lu_solve", recorded)
    model.curl_h(state.u_half)
    step(state, model)
    assert len(own) == (3 if model.physics.mode == "turbidity" else 2)
    assert all(rep.refinements == 0 for rep in own)


def test_pressure_factor_fill_below_colamd(desk, factorizations):
    """D D^T is structurally symmetric, so CachedLU's minimum-degree
    ordering on A^T + A fills less than scipy's default COLAMD."""
    model, _ = desk
    factorizations.clear()
    linsolve.CachedLU(model.DDt)
    linsolve.spla.splu(model.DDt.tocsc(), permc_spec="COLAMD")
    ours, colamd = factorizations
    assert ours.nnz < colamd.nnz


def test_stream_basis_sizes(desk):
    assert desk[0].Z.shape == (5110, 1891)
    torus = homogeneous_model(nx=32, ny=32)
    assert torus.Z.shape == (3072, 1025)


def test_model_refuses_channel_with_a_hole(channel_with_hole):
    """A hole adds a divergence-free velocity (psi constant on the hole,
    not zero) that the stream-function basis does not span."""
    mesh = channel_with_hole
    mesh.edge_tags[mesh.edge_cells[:, 1] < 0] = TAG_BOTTOM
    with pytest.raises(ValueError, match="simply connected"):
        Model(mesh, 1, PhysicsConfig(mode="turbidity"), TimeConfig(dt=1e-3, t_end=1e-3))


def test_viscosity_and_diffusivity_follow_physics():
    """nu and kappa, and the static operators scaled by them, come from the
    physics the model is built with; neither the physics nor the time
    settings can be changed after."""
    physics = PhysicsConfig(mode="turbidity", grashof=1e4, schmidt=2.0, settling_velocity=0.02)
    mesh = build_channel_mesh(ChannelGeometry(length=13.0, height=1.0, lock_length=1.0), 20, 3, "left")
    model = Model(mesh, 1, physics, TimeConfig(dt=1e-3, t_end=1.0))
    assert model.nu == physics.effective_viscosity != 1.0 / np.sqrt(5e6)
    assert model.kappa == physics.particle_diffusivity
    assert (abs(model.nu_L - model.nu * model.L) != 0).nnz == 0
    assert (abs(model.kappa_L - model.kappa * model.L) != 0).nnz == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.physics.grashof = 5e6
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.time.dt = 1e-2  # dt is baked into the static operators too
