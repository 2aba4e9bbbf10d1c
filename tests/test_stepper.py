import collections
import dataclasses
import os

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._compressed import _cs_matrix

from dualflow import assemble, driver, elements, linsolve, stepper
from dualflow.assemble import assemble_buoyancy, assemble_vorticity_convection
from dualflow.config import parse_config, parse_config_file
from dualflow.diagnostics import Engine
from dualflow.driver import build_model, make_initial_condition
from dualflow.mesh import (
    TAG_BOTTOM,
    WALL_TAGS,
    ChannelGeometry,
    build_channel_mesh,
    build_periodic_rect_mesh,
    read_mesh_text,
)
from dualflow.spaces import Field, free_dofs, interpolate, wall_trace_dofs
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

import pattern_oracle
from saddle_oracle import solve_saddle
from util_project import project
from util_rotation import convection_matrix, momentum_skew, rotation_matrix, skew_part
from util_sim1 import sim1_mesh_text
from util_tabulate import volume_tab


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
    state, rep = initialize(model, ConstantConcentrationIC(1.0))
    assert np.max(np.abs(state.u_half.coefficients)) < 1e-10
    p, _ = rep.pressure()
    # the pressure picked up the hydrostatic head (nonzero, linear in y)
    assert np.max(np.abs(p.coefficients)) > 1e-4


def test_uniform_force_on_torus_gives_uniform_drift():
    """On a torus a uniform force is NOT a pressure gradient: it excites the
    constant (harmonic) velocity mode, u = dt/2 * phi * e_g."""
    model = homogeneous_model(nx=4, ny=4, box=1.0, dt=1e-3)
    phi0 = project(model.W, lambda x, y: 1.0, model.qdeg)
    om0 = Field(model.W, np.zeros(model.W.dim))
    u0 = Field(model.U, np.zeros(model.U.dim))
    b = assemble_buoyancy(model.U, model.W, model.qdeg) @ phi0.coefficients
    u_new, _ = model.solve_momentum(om0, u0, 0.5 * model.time.dt, b=b)
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


def test_startup_nonconvergence_reported(monkeypatch):
    model = turbidity_model()
    monkeypatch.setattr(stepper, "STARTUP_MAX_ITER", 1)
    monkeypatch.setattr(stepper, "STARTUP_TOL", 1e-16)
    with pytest.raises(StartupError, match="within 1 iterations"):
        initialize(model, LockInitialCondition())


def test_startup_solves_one_pressure_of_its_last_pass(monkeypatch):
    """The startup passes solve no pressure; the report's pressure, when
    called, solves that of the last pass once, against its own factor."""
    model = turbidity_model(nx=25, ny=2)
    calls = []

    def counted(A, b, factor=None):
        calls.append((A, factor))
        return lu_solve(A, b, factor)

    lu_solve = stepper.lu_solve
    monkeypatch.setattr(stepper, "lu_solve", counted)
    state, rep = initialize(model, LockInitialCondition())
    assert "pressure_lu" not in vars(model)  # D D^T is not factored yet
    p, _ = rep.pressure()
    assert rep.iterations > 1
    # the lock start's projection, against the transport factor
    assert calls[0][0] is model.Nw_dt and calls[0][1] is model._lu_transport
    assert [A is model.DDt for A, _ in calls].count(True) == 1 and calls[-1][0] is model.DDt
    # then a momentum solve per pass, a weak curl between, and the pressure
    assert len(calls) == 1 + 2 * rep.iterations
    assert p.space is model.Q


@pytest.mark.parametrize("N", [1, 2])
def test_lock_start_is_the_projection(N, monkeypatch):
    """The lock start, (N/dt) phi0 = <f, w>/dt refined against the transport
    factor, is the L2 projection by a fresh mass factor to 1e-14 relative
    on the desk channel, with no fallback."""
    geom = ChannelGeometry(length=13.0, height=1.0, lock_length=1.0)
    model = Model(build_channel_mesh(geom, 50, 5, "crisscross"), N, PhysicsConfig(mode="turbidity"),
                  TimeConfig(dt=1e-3, t_end=1.0))
    reports = []

    def recorded(*args, **kwargs):
        x, rep = lu_solve(*args, **kwargs)
        reports.append(rep)
        return x, rep

    lu_solve = stepper.lu_solve
    monkeypatch.setattr(stepper, "lu_solve", recorded)
    _, _, phi0 = LockInitialCondition().build(model)
    delta = 2.0 * model.mesh.h_min()
    ref = project(model.W, lambda x, y: 0.5 * (1.0 - np.tanh(x / delta)), model.qdeg).coefficients
    assert len(reports) == 1 and not reports[0].fallback
    assert np.max(np.abs(phi0.coefficients - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_zero_state_is_fixed_point():
    model = turbidity_model(u_s=0.0)
    state, _ = initialize(model, ZeroBuoyancyIC())
    new, _, _ = step(state, model)
    assert np.max(np.abs(new.u_half.coefficients)) < 1e-14
    assert np.max(np.abs(new.phi.coefficients)) < 1e-14
    assert np.max(np.abs(new.omega.coefficients)) < 1e-14


def test_constant_phi_step_on_channel():
    """phi = const is transported exactly; u stays zero (pressure balance)."""
    model = turbidity_model(u_s=0.0)
    state, _ = initialize(model, ConstantConcentrationIC(0.7))
    new, _, _ = step(state, model)
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
    new, reports, _ = step(state, model)
    assert set(reports) == solves
    # one linear solve per sub-step, the stream function's for the momentum
    # step, and no pressure: no nonlinear iteration
    assert len(calls) == (4 if mode == "turbidity" else 2)
    # each against a static factor (A, b, factor), none the pressure's
    assert all(len(args) == 3 and args[2] is not None for args in calls)
    assert not any(args[0] is model.DDt for args in calls)
    if mode == "homogeneous":  # steps 1-2 are skipped, and the ledger has no particle terms
        assert new.phi is None
        row = Engine(model, state).update(state, new)
        assert row.mass_residual == 0.0 and row.exchange == 0.0


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
        state, reports, _ = step(state, model)
        assert not any(rep.fallback for rep in reports.values())
    assert factorizations == []


RUN_CFG = {
    "turbidity": """
[mesh]
length = 4.0
height = 1.0
lock_length = 1.0
nx = 8
ny = 2

[physics]
mode = turbidity
""",
    "homogeneous": """
[mesh]
length = 1.0
height = 1.0
nx = 6
ny = 6

[physics]
mode = homogeneous
nu = 0.01

[initial]
kind = random
seed = 4
""",
}


@pytest.mark.parametrize("vtk_every", [0, 1])
@pytest.mark.parametrize("mode", ["turbidity", "homogeneous"])
def test_setup_factors_what_the_run_solves(mode, vtk_every, tmp_path, factorizations, monkeypatch):
    """driver.run factors each static system in set-up, and D D^T too if
    and only if it writes snapshots, fresh or resumed, before its budget
    Engine exists; the lock start factors nothing of its own, and no step
    factors anything.  A run without snapshots solves no pressure; one
    with snapshots solves one per snapshot."""
    static = 4 if mode == "turbidity" else 3  # curl, vorticity, momentum and transport
    at_engine, pressures = [], []

    class Recorded(Engine):
        def __init__(self, model, state0):
            at_engine.append((len(factorizations), "pressure_lu" in vars(model)))
            super().__init__(model, state0)

        @classmethod
        def restored(cls, model, scalars):
            at_engine.append((len(factorizations), "pressure_lu" in vars(model)))
            return super().restored(model, scalars)

    def counted(model, *args, **kwargs):
        pressures.append(args)
        return pressure(model, *args, **kwargs)

    pressure = Model.pressure
    monkeypatch.setattr(driver, "Engine", Recorded)
    monkeypatch.setattr(Model, "pressure", counted)
    out = tmp_path / "o"
    text = RUN_CFG[mode] + f"""
[time]
dt = 1e-3
t_end = {{t_end}}

[output]
dir = {out}
vtk_every = {vtk_every}
checkpoint_every = 2
"""
    for t_end, checkpoint in ((0.002, None), (0.004, str(out / "checkpoint_00000002.ckpt"))):
        factorizations.clear()
        pressures.clear()
        result = driver.run(parse_config(text.format(t_end=t_end)), checkpoint=checkpoint)
        expected = static + (vtk_every > 0)
        assert at_engine.pop() == (expected, vtk_every > 0)
        assert len(factorizations) == expected  # and none after set-up
        assert ("pressure_lu" in vars(result.model)) == (vtk_every > 0)
        assert len(pressures) == (3 if checkpoint is None else 2) * vtk_every


def test_transport_and_vorticity_start_from_the_state(monkeypatch):
    """Transport and vorticity refine from phi^k and om^k, which the state
    holds: over the first steps of configs/lock_exchange.cfg each makes
    fewer triangular solves than the same run refined from S^-1 b (x0
    dropped), and the two runs agree to the solver tolerance.

    The vorticity margin over these steps is thin: 12 against 14 solves,
    all of it from steps 3 and 4.  A change at roundoff alone can tie it:
    a P2 basis built by Vandermonde inversion, which moved the desk K by
    2.9e-14 relative, gave 14 against 14.  Steps 5-32 tie at 112 vorticity
    solves, but over steps 1-400 the saving is large: warm against cold,
    1852 against 2159 vorticity and 1707 against 2100 transport solves."""
    cfg = parse_config_file(os.path.join(CONFIGS, "lock_exchange.cfg"))
    model = build_model(cfg)
    state0, _ = initialize(model, make_initial_condition(cfg))
    names = {id(model._lu_transport): "transport", id(model._lu_vorticity): "vorticity"}
    solves = collections.Counter()
    solve = linsolve.CachedLU.solve

    def counted(factor, rhs):
        solves[names.get(id(factor))] += 1
        return solve(factor, rhs)

    def run():
        solves.clear()
        state = state0
        for _ in range(4):
            state, reports, _ = step(state, model)
            assert not any(rep.fallback for rep in reports.values())
        return {name: solves[name] for name in ("transport", "vorticity")}, state

    monkeypatch.setattr(linsolve.CachedLU, "solve", counted)
    warm, warm_state = run()

    def cold_start(A, b, factor=None, x0=None):
        return lu_solve(A, b, factor)

    lu_solve = stepper.lu_solve
    monkeypatch.setattr(stepper, "lu_solve", cold_start)
    cold, cold_state = run()
    assert warm["transport"] < cold["transport"] and warm["vorticity"] < cold["vorticity"]
    for name in ("phi", "omega", "u_half"):
        w, c = (getattr(st, name).coefficients for st in (warm_state, cold_state))
        assert np.max(np.abs(w - c)) <= 1e-10 * np.max(np.abs(c))


def test_large_step_falls_back_to_a_fresh_factor(monkeypatch):
    """At dt = 1 the skew rotation and convection dominate N/dt, refinement
    against the static factors cannot reach the tolerance, and each such
    solve is redone with a fresh factor: reported, and as accurate and
    conservative as a direct solve."""
    model = homogeneous_model(nu=0.0, dt=1.0)
    state, _ = initialize(model, RandomSolenoidalInitialCondition(seed=3))
    K0 = model.kinetic_energy(state.u_half)
    solves = []

    def recorded(A, b, factor=None, x0=None):
        x, rep = lu_solve(A, b, factor, x0=x0)
        solves.append((A, b, x, rep))
        return x, rep

    lu_solve = stepper.lu_solve
    monkeypatch.setattr(stepper, "lu_solve", recorded)
    for _ in range(3):
        state, reports, _ = step(state, model)
        assert reports["vorticity"].fallback and reports["momentum"].fallback
    for A, b, x, rep in solves:
        assert np.max(np.abs(A @ x - b)) <= linsolve.RTOL * (1.0 + np.max(np.abs(b)))
    assert abs(model.kinetic_energy(state.u_half) - K0) <= 1e-11 * K0


def test_per_step_mass_identity_short_run():
    model = turbidity_model(nx=26, ny=2, N=2)
    state, _ = initialize(model, LockInitialCondition())
    eng = Engine(model, state)
    for _ in range(5):
        prev = state
        state, _, _ = step(state, model)
        row = eng.update(prev, state)
        assert abs(row.mass_residual) < 1e-12
        assert row.div_inf <= 1e-10


def test_homogeneous_inviscid_conservation_short():
    model = homogeneous_model(nu=0.0)
    state, _ = initialize(model, RandomSolenoidalInitialCondition(seed=3))
    K0 = model.kinetic_energy(state.u_half)
    ens0 = model.enstrophy(state.omega)
    tv0 = model.total_vorticity(state.omega)
    for _ in range(20):
        state, _, _ = step(state, model)
        assert model.div_inf(state.u_half) <= 1e-10
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
        state, _, _ = step(state, model)
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
        state, _, _ = step(state, model)
        row = eng.update(prev, state)
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
        state, _, _ = step(state, model)
    t = state.k * model.time.dt + 0.5 * model.time.dt  # velocity lives at half steps
    exact = ic.velocity(t, nu)
    import util_fields as kernels

    tab = volume_tab(model.U, 8)
    uq = kernels.field_vec(model.U.cell_dofs, state.u_half.coefficients, tab.val)
    ex, ey = exact(tab.points[..., 0], tab.points[..., 1])
    return float(np.sqrt(np.sum(tab.weights * ((uq[..., 0] - ex) ** 2 + (uq[..., 1] - ey) ** 2))))


def test_taylor_green_error_shrinks_under_refinement():
    e8 = taylor_green_velocity_error(8)
    e16 = taylor_green_velocity_error(16)
    assert e16 < e8
    assert e8 / e16 > 1.5  # first-order velocity convergence for RT_1


def time_errors(mesh, phys, ic, t_end, levels, reference):
    """The W-mass-norm errors at t_end of each integer-level field, omega
    and (with particles) phi, for dt = t_end / n, n in levels, against the
    run at dt = t_end / reference on the same mesh at N=2."""
    def final(n):
        model = Model(mesh, 2, phys, TimeConfig(dt=t_end / n, t_end=t_end))
        state, _ = initialize(model, ic)
        for _ in range(model.time.num_steps):
            state, _, _ = step(state, model)
        return model, state

    model, ref = final(reference)
    names = ["omega"] + (["phi"] if ref.phi is not None else [])
    errors = {name: [] for name in names}
    for n in levels:
        _, state = final(n)
        for name in names:
            e = getattr(state, name).coefficients - getattr(ref, name).coefficients
            errors[name].append(float(np.sqrt(e @ (model.Nw @ e))))
    return errors


@pytest.mark.parametrize("case", ["taylor_green", "lock"])
def test_second_order_in_time(case):
    """The staggered integration is second order in time (Palha & Gerritsma,
    "A mass, energy, enstrophy and vorticity conserving (MEEVC) mimetic
    spectral element discretization for the 2D incompressible Navier-Stokes
    equations", J. Comput. Phys. 328 (2017), the formulation the paper
    builds on): each halving of dt divides the error of omega and phi at a
    fixed mesh by about 4, against a reference run at dt/8 of the finest.

    Homogeneous Taylor-Green on the 8x8 torus (nu = 0.01, T = 0.5) gives
    3.98, 4.01 and 4.05.  It gave 2.04, 2.07 and 2.14 when the start
    interpolated the exact vorticity apart from u^0: only the consistent
    start omega^0 = curl_h u^0 keeps the order.  The turbidity lock on a
    4x1 channel (T = 0.4) gives 3.98, 4.00 and 4.04 for omega and 4.00,
    4.01 and 4.05 for phi; taking the momentum step's buoyancy from phi^k
    instead of phi^{k+1} halves them, to 1.96-2.17."""
    if case == "taylor_green":
        mesh = build_periodic_rect_mesh(2 * np.pi, 2 * np.pi, 8, 8, "left")
        phys, ic, t_end = PhysicsConfig(mode="homogeneous", nu=0.01), TaylorGreenInitialCondition(), 0.5
    else:
        mesh = build_channel_mesh(ChannelGeometry(4.0, 1.0, 1.0), 16, 4, "crisscross")
        phys = PhysicsConfig(mode="turbidity", grashof=5e6, schmidt=1.0, settling_velocity=0.02)
        ic, t_end = LockInitialCondition(interface_width=0.25), 0.4
    errors = time_errors(mesh, phys, ic, t_end, [10, 20, 40, 80], 640)
    for name, e in errors.items():
        ratios = [a / b for a, b in zip(e, e[1:])]
        assert min(ratios) >= 3.5, f"{name}: error ratios per dt halving {ratios}"


# ---------------------------------------------------------------------------
# The stream-function momentum step against the saddle oracle

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")


@pytest.fixture(scope="module")
def desk():
    """configs/lock_exchange.cfg (N=2, 1000 cells) two steps into the run."""
    cfg = parse_config_file(os.path.join(CONFIGS, "lock_exchange.cfg"))
    model = build_model(cfg)
    state, _ = initialize(model, make_initial_condition(cfg))
    for _ in range(2):
        state, _, _ = step(state, model)
    return model, state


@pytest.fixture(scope="module")
def box():
    """Viscous periodic box (N=1) a few steps into a random solenoidal start."""
    model = homogeneous_model(nx=8, ny=8, nu=0.01)
    state, _ = initialize(model, RandomSolenoidalInitialCondition(seed=5))
    for _ in range(3):
        state, _, _ = step(state, model)
    return model, state


def sim1_case(N):
    """The sim1 import mesh (tests/util_sim1.py), cells of several shapes
    and areas, two steps into a lock-exchange run."""
    model = Model(read_mesh_text(*sim1_mesh_text()), N, PhysicsConfig(mode="turbidity"),
                  TimeConfig(dt=1e-3, t_end=1.0))
    state, _ = initialize(model, LockInitialCondition())
    for _ in range(2):
        state, _, _ = step(state, model)
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
    # one refinement pass always: near the hydrostatic start of the desk
    # run the unrefined block LU is off by up to 5e-12 of max|u|, and one
    # pass takes it to 1e-14 of the step's answer
    u, p, _ = solve_saddle(A, model.D_r, f, model.MQ, model.ones_q, model.area, rtol=0.0, max_refine=1)
    return u, p


@pytest.mark.parametrize("case", ["desk", "box"])
def test_momentum_matches_saddle_oracle(case, request):
    model, state = request.getfixturevalue(case)
    dt = model.time.dt
    b = model.buoyancy @ state.phi.coefficients if state.phi is not None else None
    u, rep = model.solve_momentum(state.omega, state.u_half, dt, b=b)
    p, _ = model.pressure(state.omega, state.u_half, u, dt, b=b)
    u_ref, p_ref = saddle_momentum(model, state.omega, state.u_half, dt, phi_buoy=state.phi)
    assert np.max(np.abs(u.coefficients[model.iu] - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))
    assert np.max(np.abs(p.coefficients - p_ref)) <= 1e-10 * np.max(np.abs(p_ref))
    assert np.all(u.coefficients[model.u_fixed] == 0.0)
    assert rep.residual <= 1e-10 * (1.0 + np.max(np.abs(u_ref)) / dt)


@pytest.mark.parametrize("case", ["desk", "box"])
def test_pressure_gate_holds_on_every_step(case, request):
    """The pressure of each step solves D_r^T p = r to RTOL (1 + ||r||_inf),
    with r the step's momentum residual, here built from the rotation
    oracle, and reports that residual."""
    model, state = request.getfixturevalue(case)
    dt = model.time.dt
    for _ in range(5):
        new, _, _ = step(state, model)
        b = None if new.phi is None else model.buoyancy @ new.phi.coefficients
        p, rep = model.pressure(new.omega, state.u_half, new.u_half, dt, b=b)
        R = rotation_matrix(new.omega, model.U, model.qdeg)
        uo, u = state.u_half.coefficients, new.u_half.coefficients
        f = (model.M @ uo) / dt - 0.5 * (R @ uo) - model.nu * (model.Lc @ new.omega.coefficients)
        if b is not None:
            f = f + b
        r = ((model.M @ u) / dt + 0.5 * (R @ u) - f)[model.iu]
        gate = linsolve.RTOL * (1.0 + np.max(np.abs(r)))
        assert np.max(np.abs(r - model.D_rt @ p.coefficients)) <= gate
        assert rep.residual <= gate and not rep.fallback
        state = new


@pytest.mark.parametrize("case", ["desk", "box"])
def test_pressure_refuses_a_velocity_that_does_not_solve_the_step(case, request):
    """With u_old in place of the step's solution the momentum residual is
    not a pressure gradient, and no pressure is returned for it."""
    model, state = request.getfixturevalue(case)
    b = None if state.phi is None else model.buoyancy @ state.phi.coefficients
    with pytest.raises(linsolve.SolverError, match="does not solve the momentum step"):
        model.pressure(state.omega, state.u_half, state.u_half, model.time.dt, b=b)


@pytest.mark.parametrize("case", ["desk", "box"])
def test_pressure_divergence_is_on_the_free_velocities(case, request):
    """D_r is D on the free RT dofs: on the box every dof is free, and D_r
    is D itself."""
    model, _ = request.getfixturevalue(case)
    if model.mesh.periodic:
        assert model.D_r is model.D
    else:
        assert model.D_r.shape == (model.Q.dim, len(model.iu)) and len(model.iu) < model.U.dim
        assert abs(model.D_r - model.D[:, model.iu]).max() == 0.0


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


@pytest.mark.parametrize("pattern", ["left", "crisscross"])
@pytest.mark.parametrize("N", [1, 2])
def test_torus_border_is_the_rotation_of_the_harmonic_velocities(pattern, N, monkeypatch):
    """The harmonic columns of the torus's momentum system, formed from the
    static border forms and <omega, 1>, are the oracle's per-cell Z^T R H
    to 1e-14 relative, corner included, for a vorticity of nonzero mean.
    A momentum solve applies R per cell once, to u_old, and its K is
    exactly skew."""
    mesh = build_periodic_rect_mesh(2 * np.pi, 2 * np.pi, 32, 32, pattern)
    model = Model(mesh, N, PhysicsConfig(mode="homogeneous", nu=0.01), TimeConfig(dt=1e-2, t_end=1.0))
    rng = np.random.default_rng(11)
    omega = Field(model.W, 1.0 + rng.standard_normal(model.W.dim))
    u_old = Field(model.U, model.Z @ rng.standard_normal(model.Z.shape[1]))
    systems, applied = [], []
    matrix, apply_rotation = model.momentum.matrix, assemble.apply_rotation

    def recorded_matrix(scale, values, border=None):
        systems.append((values, border))
        return matrix(scale, values, border)

    def recorded_rotation(omega, U, qdegree, u):
        applied.append(u)
        return apply_rotation(omega, U, qdegree, u)

    monkeypatch.setattr(model.momentum, "matrix", recorded_matrix)
    monkeypatch.setattr(assemble, "apply_rotation", recorded_rotation)
    model.solve_momentum(omega, u_old, model.time.dt)
    monkeypatch.undo()
    assert len(applied) == 1 and applied[0] is u_old.coefficients
    [(values, X)] = systems
    _, oracle = momentum_skew(model, omega)
    m = len(oracle) - 2
    assert X.shape == oracle.shape
    assert abs(X[:m] - oracle[:m]).max() <= 1e-14 * abs(oracle[:m]).max()
    assert abs(X[m, 1] - oracle[m, 1]) <= 1e-14 * abs(oracle[m, 1])
    K = skew_part(model.momentum, values, X)
    assert (K + K.T).count_nonzero() == 0


def per_step_systems(model, state, monkeypatch):
    """One step of `model` from `state`; returns the step's state and
    {name: (A, K)} of each per-step system it solved, K its skew part."""
    seen = {}
    names = {id(model._lu_momentum): "momentum", id(model._lu_vorticity): "vorticity"}
    if model.physics.mode == "turbidity":
        names[id(model._lu_transport)] = "transport"

    def recorded(A, b, factor=None, x0=None):
        if id(factor) in names:
            seen[names[id(factor)]] = A
        return lu_solve(A, b, factor, x0=x0)

    lu_solve = stepper.lu_solve
    monkeypatch.setattr(stepper, "lu_solve", recorded)
    new, _, _ = step(state, model)
    monkeypatch.undo()
    C = assemble_vorticity_convection(state.u_half, model.W, model.qdeg)
    skew = {"transport": (C,), "vorticity": (C,), "momentum": momentum_skew(model, new.omega)}
    return new, {name: (A, skew_part(getattr(model, name), *skew[name])) for name, A in seen.items()}


@pytest.mark.parametrize("case", ["desk", "box", "sim1_1", "sim1_2"])
def test_per_step_operators_match_their_matrices(case, request, monkeypatch):
    """Each per-step system is one CSR matrix, equal to its defining form
    to 1e-14 relative: Z^T M Z + tau/2 (G - G^T)/2 with G = Z^T (R Z),
    N_c/dt + nu L/2 on iw plus C/2, and N/dt + (drift + kappa L)/2 plus
    C/2.  Its skew part, scattered on its pattern, is exactly skew."""
    model, state = request.getfixturevalue(case)
    dt = model.time.dt
    new, systems = per_step_systems(model, state, monkeypatch)
    C = convection_matrix(state.u_half, model.W, model.qdeg)
    R = rotation_matrix(new.omega, model.U, model.qdeg)
    G = model.Zt @ (R @ model.Z)
    L, iw = model.L, model.iw
    expected = {
        "momentum": model.Zt @ model.M @ model.Z + (0.5 * dt) * (0.5 * (G - G.T)),
        "vorticity": model.Nw_c / dt + 0.5 * model.nu * L[iw][:, iw] + 0.5 * C[iw][:, iw],
    }
    if model.physics.mode == "turbidity":
        expected["transport"] = model.Nw / dt + 0.5 * (model.drift + model.kappa * L) + 0.5 * C
    assert set(systems) == set(expected)
    for name, (A, K) in systems.items():
        ref = expected[name]
        assert sp.isspmatrix_csr(A) and A.shape == ref.shape
        assert abs(A - ref).max() <= 1e-14 * abs(ref).max(), name
        assert abs(K).max() > 0
        assert (K + K.T).count_nonzero() == 0, name


def static_data(model):
    """{name: CSR values} of each system's static part, by the value
    arithmetic of its defining form on the (W, W) cell pattern, gathered
    by the system's take; on the torus the momentum static's border is
    zero but for the corner H^T M H."""
    Nw_dt, L = model.Nw_dt.data, model.L.data
    values = {"vorticity": Nw_dt + 0.5 * (model.nu * L), "momentum": L}
    if model.physics.mode == "turbidity":
        values["transport"] = Nw_dt + 0.5 * (model.drift.data + model.kappa * L)
    if model.harmonic is not None:
        H = model.harmonic
        m = model.momentum.static.shape[0] - H.shape[1]
        values["momentum"] = np.concatenate([L, np.zeros(2 * m * H.shape[1]), (H.T @ (model.M @ H)).ravel()])
    return {name: v if getattr(model, name).take is None else v[getattr(model, name).take]
            for name, v in values.items()}


@pytest.mark.parametrize("case", ["desk", "box"])
def test_system_statics_are_value_arithmetic_gathered_by_take(case, request):
    """Nw, L and the drift lie on the one (W, W) cell pattern, and each
    system's static data is their value arithmetic gathered by the
    system's own take, the index that gathers its skew part."""
    model, _ = request.getfixturevalue(case)
    L = model.L
    for A in [model.Nw, model.Nw_dt] + ([model.drift] if model.physics.mode == "turbidity" else []):
        assert A.shape == L.shape
        assert np.array_equal(A.indices, L.indices) and np.array_equal(A.indptr, L.indptr)
    for name, data in static_data(model).items():
        assert np.array_equal(getattr(model, name).static.data, data), name


def oracle_case(case):
    """A fresh mesh, so that its patterns are built anew, and its physics."""
    if case == "desk":
        cfg = parse_config_file(os.path.join(CONFIGS, "lock_exchange.cfg"))
        return driver.build_mesh(cfg), PhysicsConfig(mode="turbidity")
    if case == "torus":
        mesh = build_periodic_rect_mesh(2 * np.pi, 2 * np.pi, 32, 32, "left")
        return mesh, PhysicsConfig(mode="homogeneous", nu=0.01)
    return read_mesh_text(*sim1_mesh_text()), PhysicsConfig(mode="turbidity")


@pytest.mark.parametrize("case, N", [("desk", 1), ("desk", 2), ("torus", 1), ("torus", 2), ("sim1", 2)])
def test_patterns_match_their_oracles(case, N, monkeypatch):
    """Every cell pattern and every per-step system pattern a Model builds
    is the one np.unique and np.lexsort built (tests/pattern_oracle.py):
    the same scatter positions, CSR arrays, static values and take, the
    torus's momentum border included."""
    patterns, systems = [], []

    class Pattern(assemble._Pattern):
        def __init__(self, row_dofs, col_dofs, shape):
            super().__init__(row_dofs, col_dofs, shape)
            patterns.append((self, pattern_oracle.cell_pattern(row_dofs, col_dofs, shape)))

    class System(assemble.SkewSystem):
        def __init__(self, space, static, dofs=None, corner=None):
            super().__init__(space, static, dofs, corner)
            full = assemble._pattern(space, space)
            systems.append((self, corner, pattern_oracle.skew_system(full, space.dim, static, dofs, corner)))

    monkeypatch.setattr(assemble, "_Pattern", Pattern)
    monkeypatch.setattr(assemble, "SkewSystem", System)
    mesh, physics = oracle_case(case)
    Model(mesh, N, physics, TimeConfig(dt=1e-3, t_end=1.0))
    assert len(patterns) == sum(key[0] == "pattern" for key in mesh._cache) >= 4
    for pattern, (pos, indices, indptr) in patterns:
        assert np.array_equal(pattern.pos, pos)
        assert np.array_equal(pattern.indices, indices) and np.array_equal(pattern.indptr, indptr)
    assert len(systems) == (3 if physics.mode == "turbidity" else 2)
    assert any(corner is not None for _, corner, _ in systems) == mesh.periodic
    for system, _, (data, indices, indptr, take) in systems:
        S = system.static
        assert np.array_equal(S.data, data)
        assert np.array_equal(S.indices, indices) and np.array_equal(S.indptr, indptr)
        assert (system.take is None and take is None) or np.array_equal(system.take, take)


@pytest.mark.parametrize("case", ["desk", "box"])
def test_momentum_static_is_curlcurl_on_psi(case, request):
    """By the exact sequence Z^T M Z is the curl-curl form L on the
    stream-function dofs: the momentum static's psi block is L's bit for
    bit and Z^T M Z's to roundoff.  On the torus its border is zero, the
    curls being orthogonal to the constant velocities, but for the corner
    H^T M H."""
    model, _ = request.getfixturevalue(case)
    W = model.W
    if model.harmonic is None:
        psi = free_dofs(W, wall_trace_dofs(W, WALL_TAGS))
    else:
        psi = np.arange(1, W.dim)
    m = len(psi)
    S = model.momentum.static
    assert (S[:m, :m] != model.L[psi][:, psi]).nnz == 0
    ZMZ = model.Zt @ model.M @ model.Z
    assert S.shape == ZMZ.shape
    assert abs(S - ZMZ).max() <= 1e-14 * abs(ZMZ).max()
    if model.harmonic is not None:
        assert S[:m, m:].count_nonzero() == 0 and S[m:, :m].count_nonzero() == 0
        H = model.harmonic
        assert np.array_equal(S[m:, m:].toarray(), H.T @ (model.M @ H))


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
    _, reports, _ = step(state, model)
    monkeypatch.undo()
    assert not any(rep.fallback for rep in reports.values())
    systems = [model.momentum, model.vorticity]
    if model.physics.mode == "turbidity":
        systems.append(model.transport)
    assert (model.U.dim, model.U.dim) not in built
    assert sorted(built) == sorted(system.static.shape for system in systems)


@pytest.mark.parametrize("N", [1, 2])
def test_elements_are_tabulated_at_reference_points_only(N, monkeypatch):
    """Model, initialize and a step tabulate the elements at reference
    points alone, as many on any mesh: every form is per-cell geometry or
    coefficients contracted with a reference tensor, and no form is
    evaluated at per-cell quadrature points.  The cached reference tensors
    are dropped first, so both meshes build them afresh."""
    counts = []

    def recorded(tabulate):
        def wrapped(self, points):
            counts[-1].add(np.size(points) // 2)
            return tabulate(self, points)
        return wrapped

    monkeypatch.setattr(elements.ScalarElement, "tabulate", recorded(elements.ScalarElement.tabulate))
    monkeypatch.setattr(elements.RTElement, "tabulate", recorded(elements.RTElement.tabulate))
    for nx, ny in ((10, 2), (20, 3)):
        counts.append(set())
        for fn in vars(elements).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        model = turbidity_model(nx=nx, ny=ny, N=N)
        state, _ = initialize(model, LockInitialCondition())
        step(state, model)
    assert counts[0] and counts[0] == counts[1]


@pytest.mark.parametrize("case", ["desk", "box"])
def test_own_factor_solves_take_no_refinement(case, request, monkeypatch):
    """The weak-curl and pressure systems are solved against factors of
    themselves: the first solve is at the roundoff floor."""
    model, state = request.getfixturevalue(case)
    own = []

    def recorded(A, b, factor=None, x0=None):
        x, rep = lu_solve(A, b, factor, x0=x0)
        if A is model.Nw_c or A is model.DDt:
            own.append(rep)
        return x, rep

    lu_solve = stepper.lu_solve
    monkeypatch.setattr(stepper, "lu_solve", recorded)
    model.curl_h(state.u_half)
    new, _, _ = step(state, model)
    b = None if new.phi is None else model.buoyancy @ new.phi.coefficients
    model.pressure(new.omega, state.u_half, new.u_half, model.time.dt, b=b)
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
    for name, data in static_data(model).items():
        assert np.array_equal(getattr(model, name).static.data, data), name
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.physics.grashof = 5e6
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.time.dt = 1e-2  # dt is baked into the static operators too
