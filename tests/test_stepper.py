import collections
import dataclasses
import importlib.util
import os

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph
from scipy.sparse._compressed import _cs_matrix

from dualflow import assemble, driver, elements, linsolve, stepper
from dualflow.assemble import assemble_mass, assemble_vorticity_convection
from dualflow.config import parse_config, parse_config_file
from dualflow.diagnostics import Engine
from dualflow.driver import build_model
from dualflow.mesh import (
    TAG_BOTTOM,
    WALL_TAGS,
    ChannelGeometry,
    MeshError,
    _finalize,
    build_channel_mesh,
    build_periodic_rect_mesh,
    read_mesh_text,
)
from dualflow.spaces import free_dofs, make_space, wall_trace_dofs
from dualflow.stepper import (
    LockInitialCondition,
    Model,
    PhysicsConfig,
    RandomSolenoidalInitialCondition,
    StartupError,
    TaylorGreenInitialCondition,
    TimeConfig,
    initial_condition,
    initialize,
    step,
)

import pattern_oracle
from pressure_oracle import pinned_pressure
from saddle_oracle import solve_saddle
from util_curl import weak_curl_matrix
from util_project import project
from util_rotation import buoyancy_matrix, convection_matrix, momentum_skew, rotation_matrix, skew_part
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


def record_solves(monkeypatch):
    """[(name, report)] of every System.solve from here to the end of the
    test, in order."""
    solves = []
    solve = assemble.System.solve

    def recorded(system, *args, **kwargs):
        x, rep = solve(system, *args, **kwargs)
        solves.append((system.name, rep))
        return x, rep

    monkeypatch.setattr(assemble.System, "solve", recorded)
    return solves


class ZeroBuoyancyIC:
    def build(self, model):
        phi0 = project(model.W, lambda x, y: 0.0)
        return np.zeros(model.U.dim), phi0, 0  # no solve, no fallback


class ConstantConcentrationIC:
    def __init__(self, value=1.0):
        self.value = value

    def build(self, model):
        phi0 = project(model.W, lambda x, y: self.value)
        return np.zeros(model.U.dim), phi0, 0  # no solve, no fallback


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


@pytest.mark.parametrize("dt, t_end", [(0.3, 1.0), (1e-3, 0.0105), (0.25, 0.9)])
def test_partial_last_step_refused_by_time_config(dt, t_end):
    """A Model built from the API keeps the config's rule: a t_end that is
    not a whole number of steps (dt = 0.3, t_end = 1.0 ran 3 steps, to
    t = 0.9) is refused, not cut short."""
    with pytest.raises(ValueError, match="whole number of time steps"):
        TimeConfig(dt=dt, t_end=t_end)


@pytest.mark.parametrize("mode, name", [("turbidity", "grashof"), ("turbidity", "schmidt"),
                                        ("turbidity", "settling_velocity"), ("homogeneous", "nu")])
def test_physics_refuses_nan(mode, name):
    """NaN fails every comparison, so a rule written as `x <= 0 is bad`
    lets it through to the viscosity; each rule is written so that NaN
    fails it."""
    with pytest.raises(ValueError, match=f"^{name} must be"):
        PhysicsConfig(mode=mode, **{name: float("nan")})


@pytest.mark.parametrize("dt, t_end, name", [(1e-3, float("inf"), "t_end"), (float("nan"), 1.0, "dt"),
                                             (1e-3, float("nan"), "t_end"), (float("inf"), 1.0, "t_end")])
def test_time_config_refuses_non_finite_values_with_value_error(dt, t_end, name):
    """t_end = inf overflowed the step count (OverflowError) and dt = nan
    failed converting NaN to an integer: both are refused by name."""
    with pytest.raises(ValueError, match=f"^{name} must be"):
        TimeConfig(dt=dt, t_end=t_end)


@pytest.mark.parametrize("width", [0.0, -0.1, float("nan")])
def test_lock_refuses_a_width_that_is_not_positive(width):
    """A negative width mirrored the lock (suspended mass 12 where it is 1)
    and 0 silently meant the default width."""
    with pytest.raises(ValueError, match="^interface_width must be positive"):
        LockInitialCondition(interface_width=width)


def test_random_start_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="^seed must be nonnegative"):
        RandomSolenoidalInitialCondition(seed=-1)


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
    assert np.max(np.abs(state.u_half)) == 0.0


def test_startup_constant_phi_is_pressure_gradient_on_channel():
    """A uniform body force on the channel is absorbed by the pressure."""
    model = turbidity_model()
    state, rep = initialize(model, ConstantConcentrationIC(1.0))
    assert np.max(np.abs(state.u_half)) < 1e-10
    p, _ = rep.pressure()
    # the pressure picked up the hydrostatic head (nonzero, linear in y)
    assert np.max(np.abs(p)) > 1e-4


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
    called, solves that of the last pass on the cell tree, which it builds
    then, and solves no System.  Before the passes the set-up projects u^0
    onto the stream function and takes the weak curl of its projection."""
    model = turbidity_model(nx=25, ny=2)
    calls = []

    def counted(A, b, factor=None):
        calls.append((A, factor))
        return lu_solve(A, b, factor)

    lu_solve = stepper.lu_solve
    monkeypatch.setattr(stepper, "lu_solve", counted)
    solves = record_solves(monkeypatch)
    state, rep = initialize(model, LockInitialCondition())
    assert "pressure_tree" not in vars(model)  # the tree is not built yet
    p, _ = rep.pressure()
    assert rep.iterations > 1 and "pressure_tree" in vars(model)
    # the lock start's projection, against the transport factor
    assert len(calls) == 1
    assert calls[0][0] is model.Nw_dt and calls[0][1] is model.systems["transport"].lu
    names = [name for name, _ in solves]
    # the projection and omega^0, then a momentum solve per pass and a weak
    # curl between; the pressure solves no System
    assert names == ["momentum", "curl"] * rep.iterations + ["momentum"]
    assert len(calls) + len(solves) == 1 + 1 + 2 * rep.iterations
    assert p.shape == (model.Q.dim,)


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
    _, phi0, fallbacks = LockInitialCondition().build(model)
    delta = 2.0 * model.mesh.h_min()
    ref = project(model.W, lambda x, y: 0.5 * (1.0 - np.tanh(x / delta)))
    assert len(reports) == 1 and not reports[0].fallback and fallbacks == 0
    assert np.max(np.abs(phi0 - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_startup_counts_every_fallback(monkeypatch):
    """On the desk channel of configs/lock_exchange.cfg at dt = 0.15 the
    lock start misses the tolerance against the transport factor and falls
    back to a fresh one.  StartupReport.fallbacks counts every solve the
    startup makes, the initial condition's, the set-up's projection and
    weak curl and each pass's weak curl included: as many fallbacks as a
    recording lu_solve sees."""
    geom = ChannelGeometry(length=13.0, height=1.0, lock_length=1.0)
    model = Model(build_channel_mesh(geom, 50, 5, "crisscross"), 2, PhysicsConfig(mode="turbidity"),
                  TimeConfig(dt=0.15, t_end=1.5))
    reports = []

    def recorded(*args, **kwargs):
        x, rep = lu_solve(*args, **kwargs)
        reports.append(rep)
        return x, rep

    lu_solve = linsolve.lu_solve
    monkeypatch.setattr(stepper, "lu_solve", recorded)
    monkeypatch.setattr(assemble, "lu_solve", recorded)
    _, rep = initialize(model, LockInitialCondition(interface_width=0.1))
    assert reports[0].fallback  # the lock start
    # the lock start, the projection and omega^0, a momentum solve per pass, a curl between
    assert len(reports) == 2 + 2 * rep.iterations
    assert rep.fallbacks == sum(r.fallback for r in reports) >= 1


@pytest.mark.parametrize("name", ["curl", "transport", "vorticity", "momentum"])
def test_a_failed_solve_names_its_system(name, monkeypatch):
    """A solve that misses the tolerance against its static factor and then
    against a fresh one fails naming its system: here that system's
    factor, and every fresh factor, solves to zero."""
    model = turbidity_model()
    state, _ = initialize(model, LockInitialCondition())

    class Zero(linsolve.CachedLU):
        def solve(self, rhs):
            return np.zeros_like(rhs)

    monkeypatch.setattr(model.systems[name].lu, "solve", np.zeros_like)
    monkeypatch.setattr(linsolve, "CachedLU", Zero)
    with pytest.raises(linsolve.SolverError, match=rf"^step 1 failed: {name}: LU residual "):
        step(state, model)


def test_zero_state_is_fixed_point():
    model = turbidity_model(u_s=0.0)
    state, _ = initialize(model, ZeroBuoyancyIC())
    new, _, _ = step(state, model)
    assert np.max(np.abs(new.u_half)) < 1e-14
    assert np.max(np.abs(new.phi)) < 1e-14
    assert np.max(np.abs(new.omega)) < 1e-14


def test_constant_phi_step_on_channel():
    """phi = const is transported exactly; u stays zero (pressure balance)."""
    model = turbidity_model(u_s=0.0)
    state, _ = initialize(model, ConstantConcentrationIC(0.7))
    new, _, _ = step(state, model)
    assert np.max(np.abs(new.phi - state.phi)) < 1e-10
    assert np.max(np.abs(new.u_half)) < 1e-10


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

    lu_solve = assemble.lu_solve
    monkeypatch.setattr(assemble, "lu_solve", counted)
    systems = record_solves(monkeypatch)
    new, reports, _ = step(state, model)
    assert set(reports) == solves
    # one linear solve per sub-step, the stream function's for the momentum
    # step, and no pressure: no nonlinear iteration
    assert len(calls) == (4 if mode == "turbidity" else 2)
    # each against a static factor (A, b, factor), none the pressure's
    assert all(len(args) == 3 and args[2] is not None for args in calls)
    assert sorted(name for name, _ in systems) == sorted(solves)
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
    """driver.run factors each static system in set-up but the vorticity
    system, which refines against the weak curl's factor, before its
    budget Engine exists, and builds the pressure's cell tree there too if
    and only if it writes snapshots, fresh or resumed: the pressure
    factors nothing.  The lock start factors nothing of its own, and no
    step factors anything.  A run without snapshots solves no pressure; one with
    snapshots solves one per snapshot."""
    static = 3 if mode == "turbidity" else 2  # curl, momentum and transport
    at_engine, pressures = [], []

    def built(model):
        return "pressure_tree" in vars(model)

    class Recorded(Engine):
        def __init__(self, model, state0):
            at_engine.append((len(factorizations), built(model)))
            super().__init__(model, state0)

        @classmethod
        def restored(cls, model, scalars):
            at_engine.append((len(factorizations), built(model)))
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
        snapshots = vtk_every > 0
        assert at_engine.pop() == (static, snapshots)
        assert len(factorizations) == static  # and none after set-up
        assert built(result.model) == snapshots
        assert len(pressures) == (3 if checkpoint is None else 2) * vtk_every


def count_triangular_solves(monkeypatch):
    """(solves, calls): Counters of the triangular solves and of the solves
    of each System by name, from here to the end of the test."""
    solves, calls = collections.Counter(), collections.Counter()
    solving = []
    solve, system_solve = linsolve.CachedLU.solve, assemble.System.solve

    def counted(factor, rhs):
        solves[solving[-1] if solving else None] += 1
        return solve(factor, rhs)

    def named(system, *args, **kwargs):
        solving.append(system.name)
        calls[system.name] += 1
        try:
            return system_solve(system, *args, **kwargs)
        finally:
            solving.pop()

    monkeypatch.setattr(linsolve.CachedLU, "solve", counted)
    monkeypatch.setattr(assemble.System, "solve", named)
    return solves, calls


def test_midpoint_start_is_exact_on_polynomials():
    """From n levels x(0), x(-1), ..., x(1 - n), newest first, for n up to
    the newest level and a full history, the start is the midpoint (x(0)
    + x(1))/2 of every polynomial x of degree < n: of each monomial t^d,
    and so, the start being linear, of their combinations.  From one to
    three levels its weights are the constant, linear and quadratic
    starts' bit for bit."""
    for n in range(1, stepper.LEVELS + 2):
        t = -np.arange(n, dtype=float)
        d = np.arange(n)
        start = stepper._midpoint_start([ti ** d for ti in t])
        midpoint = 0.5 * (0.0 ** d + 1.0 ** d)
        assert np.all(np.abs(start - midpoint) <= 1e-12 * np.abs(midpoint)), (n, start)
    for weights in ([1.0], [1.5, -0.5], [2.0, -1.5, 0.5]):
        assert stepper._midpoint_start(np.eye(len(weights))).tolist() == weights


def test_extrapolated_starts_save_passes(monkeypatch):
    """Every per-step solve, for a midpoint, starts from the mean of the
    newest level and the Lagrange extrapolation of the state's history one
    step ahead, of degree 6 from a full history (of lower degree in the
    first steps).  Over steps 0-100 of configs/lock_exchange.cfg, from the
    driver's initial condition, each system makes fewer triangular solves
    per solve than from the starts before extrapolation (transport and
    vorticity from x^k, momentum cold), and the two runs agree to the
    solver tolerance.

    Measured, extrapolated against before: 1.03 against 3.54 transport,
    1.07 against 3.96 vorticity and 1.04 against 3.72 momentum; over
    steps 300-400, 1.00 against 5.00, 1.00 against 5.00 and 1.00 against
    4.41.  The pins below keep at least three quarters of each saving."""
    cfg = parse_config_file(os.path.join(CONFIGS, "lock_exchange.cfg"))
    model = build_model(cfg)
    state0, _ = initialize(model, initial_condition(cfg.initial))
    names = ("transport", "vorticity", "momentum")
    solves, _ = count_triangular_solves(monkeypatch)

    def run(steps=100):
        solves.clear()
        state = state0
        for _ in range(steps):
            state, reports, _ = step(state, model)
            assert not any(rep.fallback for rep in reports.values())
        return {name: solves[name] / steps for name in names}, state

    extrapolated, state = run()
    solve_momentum = model.solve_momentum
    monkeypatch.setattr(stepper, "_midpoint_start", lambda levels: levels[0])
    monkeypatch.setattr(model, "solve_momentum", lambda *args, m0, **kwargs: solve_momentum(*args, **kwargs))
    before, before_state = run()
    saving = {name: before[name] - extrapolated[name] for name in names}
    assert saving["transport"] >= 2.0 and saving["vorticity"] >= 2.25 and saving["momentum"] >= 2.25, saving
    for name in ("phi", "omega", "u_half"):
        a, b = (getattr(st, name) for st in (state, before_state))
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


# the periodic_inviscid benchmark case: the conservative core on a 32 x 32 torus
PERIODIC_INVISCID = """
[mesh]
length = 6.283185307179586
height = 6.283185307179586
nx = 32
ny = 32
pattern = left

[physics]
mode = homogeneous
nu = 0.0

[discretization]
degree = 1

[time]
dt = 1e-2
t_end = 1.0

[initial]
kind = random
seed = 1
"""


@pytest.mark.parametrize("case", ["desk", "box"])
def test_full_history_takes_one_pass(case, monkeypatch):
    """Once the state holds its full history, a per-step solve starts so
    close to its solution that one refinement pass reaches the roundoff
    floor: over steps 10-100 of configs/lock_exchange.cfg and of the
    periodic_inviscid box, each system makes at most 1.1 triangular
    solves per solve, with no fallback (measured: 1.00 each; the weak
    curl's one is its cold solve against its own factor)."""
    if case == "desk":
        cfg = parse_config_file(os.path.join(CONFIGS, "lock_exchange.cfg"))
    else:
        cfg = parse_config(PERIODIC_INVISCID)
    model = build_model(cfg)
    state, _ = initialize(model, initial_condition(cfg.initial))
    for _ in range(10):
        state, _, _ = step(state, model)
    assert len(state.psi_past) == stepper.LEVELS
    solves, calls = count_triangular_solves(monkeypatch)
    for _ in range(90):
        state, reports, _ = step(state, model)
        assert not any(rep.fallback for rep in reports.values())
    per_solve = {name: solves[name] / calls[name] for name in calls}
    steps_solve = {"curl", "transport", "vorticity", "momentum"} if case == "desk" else {"vorticity", "momentum"}
    assert set(per_solve) == steps_solve and None not in solves
    assert max(per_solve.values()) <= 1.1, per_solve


@pytest.mark.parametrize("case", ["desk", "box"])
def test_a_wrong_history_moves_cost_not_the_answer(case, request, factorizations):
    """A finite but wrong history, every earlier level of a full stack off
    by 1e-3 of its size, gives a step whose solves still meet RTOL, at
    more passes, and whose state agrees with the clean step's to 1e-10:
    the start sets only the cost.  A fallback, if any, is reported once
    per fresh factor.  psi_0 is not history: the momentum step's load is
    formed from it."""
    model, state = request.getfixturevalue(case)
    while state.k < stepper.LEVELS:
        state, _, _ = step(state, model)
    rng = np.random.default_rng(11)
    wrong = {name: tuple(x + 1e-3 * np.max(np.abs(x)) * rng.uniform(-1.0, 1.0, len(x)) for x in past)
             for name in ("phi_past", "omega_past", "psi_past") if (past := getattr(state, name))}
    assert list(map(len, wrong.values())) == [stepper.LEVELS] * (3 if state.phi is not None else 2)
    clean, clean_reports, _ = step(state, model)
    factorizations.clear()
    new, reports, _ = step(dataclasses.replace(state, **wrong), model)
    assert sum(rep.fallback for rep in reports.values()) == len(factorizations)
    assert sum(rep.refinements for rep in reports.values()) > sum(
        rep.refinements for rep in clean_reports.values())
    for name in ("phi", "omega", "u_half"):
        if getattr(clean, name) is not None:
            a, b = getattr(new, name), getattr(clean, name)
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b)), name


def test_large_step_falls_back_to_a_fresh_factor(monkeypatch, factorizations):
    """At dt = 1 the skew rotation and convection dominate N/dt, and
    refinement against the static factors cannot reach the tolerance from
    the first step's starts, before any history: both its solves, and
    each later solve that misses too, are redone with a fresh factor.
    Each solve reports a fallback exactly when it factored afresh, once,
    and is as accurate and conservative as a direct solve."""
    model = homogeneous_model(nu=0.0, dt=1.0)
    state, _ = initialize(model, RandomSolenoidalInitialCondition(seed=3))
    K0 = model.kinetic_energy(state.u_half)
    solves = []

    def recorded(A, b, factor=None, x0=None):
        before = len(factorizations)
        x, rep = lu_solve(A, b, factor, x0=x0)
        solves.append((A.copy(), b, x, rep, len(factorizations) - before))  # A is refilled each step
        return x, rep

    lu_solve = assemble.lu_solve
    monkeypatch.setattr(assemble, "lu_solve", recorded)
    for k in range(3):
        state, reports, _ = step(state, model)
        if k == 0:
            assert reports["vorticity"].fallback and reports["momentum"].fallback
    assert len(solves) == 6
    for A, b, x, rep, factored in solves:
        assert factored == rep.fallback
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
    uq = kernels.field_vec(model.U.cell_dofs, state.u_half, tab.val)
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
            e = getattr(state, name) - getattr(ref, name)
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
    state, _ = initialize(model, initial_condition(cfg.initial))
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
    R = rotation_matrix(omega, model.W, model.U)
    l = weak_curl_matrix(model.U, model.W, 2 * model.degree + 2) @ omega
    R_r = R[iu][:, iu]
    Mdt = (1.0 / dt) * assemble_mass(model.U)[iu][:, iu]
    f = (Mdt - 0.5 * R_r) @ u_old[iu] - model.nu * l[iu]
    if phi_buoy is not None:
        f = f + (buoyancy_matrix(model.U, model.W) @ phi_buoy)[iu]
    A = (Mdt + 0.5 * R_r).tocsr()
    # one refinement pass always: near the hydrostatic start of the desk
    # run the unrefined block LU is off by up to 5e-12 of max|u|, and one
    # pass takes it to 1e-14 of the step's answer
    u, p, _ = solve_saddle(A, model.D_r, f, assemble.assemble_integrals(model.Q), model.area, rtol=0.0, max_refine=1)
    return u, p


@pytest.mark.parametrize("case, fraction", [("desk", 1.0), ("box", 1.0), ("desk", 0.5), ("box", 0.5)],
                         ids=["desk", "box", "desk-half-dt", "box-half-dt"])
def test_momentum_matches_saddle_oracle(case, fraction, request):
    """The momentum solve, from the stream function psi_0 of u_half with its
    load formed in W, over the run's dt and over the startup's dt/2, is
    the velocity/pressure saddle system's answer from u_half to 1e-12
    relative, and its pressure to 1e-10."""
    model, state = request.getfixturevalue(case)
    dt = fraction * model.time.dt
    u, _, rep = model.solve_momentum(state.omega, state.psi_0, phi=state.phi, dt=dt)
    p, _ = model.pressure(state.omega, state.u_half, u, dt, phi=state.phi)
    u_ref, p_ref = saddle_momentum(model, state.omega, state.u_half, dt, phi_buoy=state.phi)
    assert np.max(np.abs(u[model.iu] - u_ref)) <= 1e-12 * np.max(np.abs(u_ref))
    assert np.max(np.abs(p - p_ref)) <= 1e-10 * np.max(np.abs(p_ref))
    assert np.all(u[model.u_fixed] == 0.0)
    assert rep.residual <= 1e-10 * (1.0 + np.max(np.abs(u_ref)) / dt)


@pytest.mark.parametrize("case", ["desk", "box"])
def test_pressure_gate_holds_on_every_step(case, request):
    """The pressure of each step solves D_r^T p = r to RTOL (1 + ||r||_inf),
    with r the step's momentum residual, here built from the rotation
    oracle, and reports that residual."""
    model, state = request.getfixturevalue(case)
    dt = model.time.dt
    M, B = assemble_mass(model.U), buoyancy_matrix(model.U, model.W)
    Lc = M @ model.curl
    for _ in range(5):
        new, _, _ = step(state, model)
        p, rep = model.pressure(new.omega, state.u_half, new.u_half, dt, phi=new.phi)
        R = rotation_matrix(new.omega, model.W, model.U)
        uo, u = state.u_half, new.u_half
        f = (M @ uo) / dt - 0.5 * (R @ uo) - model.nu * (Lc @ new.omega)
        if new.phi is not None:
            f = f + B @ new.phi
        r = ((M @ u) / dt + 0.5 * (R @ u) - f)[model.iu]
        gate = linsolve.RTOL * (1.0 + np.max(np.abs(r)))
        assert np.max(np.abs(r - model.D_r.T @ p)) <= gate
        assert rep.residual <= gate and not rep.fallback
        state = new


@pytest.mark.parametrize("case", ["desk", "box"])
def test_pressure_refuses_a_velocity_that_does_not_solve_the_step(case, request):
    """With u_old in place of the step's solution the momentum residual is
    not a pressure gradient, and no pressure is returned for it."""
    model, state = request.getfixturevalue(case)
    with pytest.raises(linsolve.SolverError, match="does not solve the momentum step"):
        model.pressure(state.omega, state.u_half, state.u_half, model.time.dt, phi=state.phi)


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


def pressure_case(kind, N):
    """A channel or a torus model of degree N, and the states before and
    after its third step."""
    if kind == "channel":
        model, ic = turbidity_model(N=N), LockInitialCondition()
    else:
        model, ic = homogeneous_model(N=N, nu=0.01), RandomSolenoidalInitialCondition(seed=5)
    new, _ = initialize(model, ic)
    for _ in range(3):
        state, (new, _, _) = new, step(new, model)
    return model, state, new


def oracle_residual(model, state, new):
    """The momentum residual of the step from state to new without its
    pressure, on the free dofs, from the assembled M, R and B."""
    dt, M = model.time.dt, assemble_mass(model.U)
    R = rotation_matrix(new.omega, model.W, model.U)
    f = (M @ state.u_half) / dt - 0.5 * (R @ state.u_half) - model.nu * (M @ (model.curl @ new.omega))
    if new.phi is not None:
        f = f + buoyancy_matrix(model.U, model.W) @ new.phi
    return ((M @ new.u_half) / dt + 0.5 * (R @ new.u_half) - f)[model.iu]


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("kind", ["channel", "torus"])
def test_tree_pressure_matches_the_pinned_oracle(kind, N):
    """The pressure solved on the tree of cells is the pinned D_r D_r^T
    solve's (tests/pressure_oracle.py) to 1e-10 relative."""
    model, state, new = pressure_case(kind, N)
    p, _ = model.pressure(new.omega, state.u_half, new.u_half, model.time.dt, phi=new.phi)
    ref = pinned_pressure(model.D_r, oracle_residual(model, state, new),
                          assemble.assemble_integrals(model.Q), model.area)
    assert np.max(np.abs(p - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_tree_pressure_gate_holds_on_a_long_channel():
    """On a 128 x 1 channel the tree from cell 0 is over 200 cells deep,
    and the jumps summed along it still give a pressure that passes the
    unchanged gate, RTOL (1 + ||r||_inf), over every equation."""
    model = turbidity_model(nx=128, ny=1, N=2)
    inner = model.mesh.edge_cells[model.mesh.edge_cells[:, 1] >= 0]
    graph = sp.csr_matrix((np.ones(len(inner)), inner.T), shape=(model.mesh.num_cells,) * 2)
    assert csgraph.shortest_path(graph, directed=False, unweighted=True, indices=0).max() >= 200
    state, _ = initialize(model, LockInitialCondition())
    for _ in range(3):
        new, _, _ = step(state, model)
        p, rep = model.pressure(new.omega, state.u_half, new.u_half, model.time.dt, phi=new.phi)
        r = oracle_residual(model, state, new)
        gate = linsolve.RTOL * (1.0 + np.max(np.abs(r)))
        assert np.max(np.abs(r - model.D_r.T @ p)) <= gate and rep.residual <= gate
        state = new


def test_pressure_tree_refuses_a_disconnected_cell_graph():
    """A mesh of two pieces that share no edge has a constant pressure per
    piece, which no tree of cells fixes: it is refused, not solved."""
    full = build_channel_mesh(ChannelGeometry(length=3.0, height=1.0, lock_length=1.0), 3, 1, "left")
    keep = np.abs(full.cell_coords.mean(axis=1)[:, 0] - 0.5) > 0.5  # the middle column goes
    cells = full.cells[keep]
    pairs = np.stack([np.sort(cells[:, [a, b]], axis=1) for a, b in elements.LOCAL_EDGES], axis=1)
    mesh = _finalize(full.vertices, cells, full.cell_coords[keep],
                     pairs[..., 0] * full.num_vertices + pairs[..., 1], periodic=False)
    U, Q = make_space(mesh, "RT", 1), make_space(mesh, "DG", 0)
    with pytest.raises(MeshError, match="cell graph is not connected"):
        assemble.PressureTree(assemble.assemble_div(U, Q), U, Q, np.arange(U.dim))


@pytest.mark.parametrize("case", ["desk", "box"])
def test_stream_basis_structure(case, request):
    model, state = request.getfixturevalue(case)
    Z = model.Z
    assert Z.shape[1] == len(model.iu) - (model.Q.dim - 1)
    assert np.max(np.abs((model.D @ Z).toarray())) <= 1e-13
    assert Z[model.u_fixed].count_nonzero() == 0
    # the rotation block of the momentum system, torus border included
    K = skew_part(model.systems["momentum"], *momentum_skew(model, state.omega))
    assert abs(K).max() > 0
    assert abs(K + K.T).max() == 0.0


@pytest.mark.parametrize("pattern", ["left", "crisscross"])
@pytest.mark.parametrize("N", [1, 2])
def test_torus_border_is_the_rotation_of_the_harmonic_velocities(pattern, N, monkeypatch):
    """The harmonic columns of the torus's momentum system, formed from the
    static border forms and <omega, 1>, are the oracle's per-cell Z^T R H
    to 1e-14 relative, corner included, for a vorticity of nonzero mean,
    and the momentum solve's K is exactly skew."""
    mesh = build_periodic_rect_mesh(2 * np.pi, 2 * np.pi, 32, 32, pattern)
    model = Model(mesh, N, PhysicsConfig(mode="homogeneous", nu=0.01), TimeConfig(dt=1e-2, t_end=1.0))
    rng = np.random.default_rng(11)
    omega = 1.0 + rng.standard_normal(model.W.dim)
    psi = rng.standard_normal(model.Z.shape[1])
    systems = []
    momentum = model.systems["momentum"]
    matrix = momentum.matrix

    def recorded_matrix(scale, values, border=None):
        systems.append((values, border))
        return matrix(scale, values, border)

    monkeypatch.setattr(momentum, "matrix", recorded_matrix)
    model.solve_momentum(omega, psi)
    monkeypatch.undo()
    [(values, X)] = systems
    _, oracle = momentum_skew(model, omega)
    m = len(oracle) - 2
    assert X.shape == oracle.shape
    assert abs(X[:m] - oracle[:m]).max() <= 1e-14 * abs(oracle[:m]).max()
    assert abs(X[m, 1] - oracle[m, 1]) <= 1e-14 * abs(oracle[m, 1])
    K = skew_part(momentum, values, X)
    assert (K + K.T).count_nonzero() == 0


def per_step_systems(model, state, monkeypatch):
    """One step of `model` from `state`; returns the step's state and
    {name: (A, K)} of each per-step system it solved, K its skew part."""
    seen = {}
    matrix = assemble.System.matrix

    def recorded(system, *args, **kwargs):
        seen[system.name] = A = matrix(system, *args, **kwargs)
        return A

    monkeypatch.setattr(assemble.System, "matrix", recorded)
    new, _, _ = step(state, model)
    monkeypatch.undo()
    C = assemble_vorticity_convection(state.u_half, model.U, model.W)
    skew = {"transport": (C,), "vorticity": (C,), "momentum": momentum_skew(model, new.omega)}
    return new, {name: (A, skew_part(model.systems[name], *skew[name])) for name, A in seen.items()}


@pytest.mark.parametrize("case", ["desk", "box", "sim1_1", "sim1_2"])
def test_per_step_operators_match_their_matrices(case, request, monkeypatch):
    """Each per-step system is one CSR matrix, equal to its defining form
    to 1e-14 relative: Z^T M Z + tau/2 (G - G^T)/2 with G = Z^T (R Z),
    N_c/dt + nu L/2 on iw plus C/2, and N/dt + (drift + kappa L)/2 plus
    C/2.  Its skew part, scattered on its pattern, is exactly skew."""
    model, state = request.getfixturevalue(case)
    dt = model.time.dt
    new, systems = per_step_systems(model, state, monkeypatch)
    C = convection_matrix(state.u_half, model.U, model.W)
    R = rotation_matrix(new.omega, model.W, model.U)
    G = model.Z.T @ (R @ model.Z)
    L, iw = model.L, model.iw
    expected = {
        "momentum": model.Z.T @ assemble_mass(model.U) @ model.Z + (0.5 * dt) * (0.5 * (G - G.T)),
        "vorticity": model.Nw[iw][:, iw] / dt + 0.5 * model.nu * L[iw][:, iw] + 0.5 * C[iw][:, iw],
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
    zero but for the corner H^T M H, M applied per cell."""
    Nw_dt, L = model.Nw_dt.data, model.L.data
    values = {"curl": model.Nw.data, "vorticity": Nw_dt + 0.5 * (model.nu * L), "momentum": L}
    if model.physics.mode == "turbidity":
        values["transport"] = Nw_dt + 0.5 * (model.drift.data + model.kappa * L)
    if model.harmonic is not None:
        H = model.harmonic
        m = model.systems["momentum"].static.shape[0] - H.shape[1]
        MH = np.column_stack([model.velocity.apply(a=h) for h in H.T])
        values["momentum"] = np.concatenate([L, np.zeros(2 * m * H.shape[1]), (H.T @ MH).ravel()])
    takes = {name: model.systems[name].take for name in values}
    return {name: v if takes[name] is None else v[takes[name]] for name, v in values.items()}


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
        assert np.array_equal(model.systems[name].static.data, data), name


def test_unrestricted_systems_share_the_cell_pattern():
    """On a torus the weak-curl and vorticity systems are on every CG dof
    with no border: each static is its values on the cell pattern's own
    index arrays, and the weak curl's values are Nw's, not copies."""
    model = homogeneous_model(nx=32, ny=32, N=2)
    pattern = assemble._pattern(model.W, model.W)
    for name in ("curl", "vorticity"):
        system = model.systems[name]
        assert system.take is None
        assert np.shares_memory(system.static.indices, pattern.indices)
        assert np.shares_memory(system.static.indptr, pattern.indptr)
    assert np.shares_memory(model.systems["curl"].static.data, model.Nw.data)
    assert not np.shares_memory(model.systems["momentum"].static.data, model.L.data)  # restricted


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
    is the one np.unique and scipy built (tests/pattern_oracle.py):
    the same scatter positions, CSR arrays, static values and take, the
    torus's momentum border included, and the vorticity system's, which
    on_cells does not build: it takes the weak curl's restriction."""
    patterns, systems = [], []

    class Pattern(assemble._Pattern):
        def __init__(self, row_dofs, col_dofs, shape):
            super().__init__(row_dofs, col_dofs, shape)
            patterns.append((self, pattern_oracle.cell_pattern(row_dofs, col_dofs, shape)))

    on_cells = assemble.System.on_cells

    def recorded(name, space, static, dofs=None, corner=None):
        system = on_cells(name, space, static, dofs, corner)
        full = assemble._pattern(space, space)
        systems.append((system, corner, pattern_oracle.system_pattern(full, space.dim, static, dofs, corner)))
        return system

    monkeypatch.setattr(assemble, "_Pattern", Pattern)
    monkeypatch.setattr(assemble.System, "on_cells", recorded)
    mesh, physics = oracle_case(case)
    model = Model(mesh, N, physics, TimeConfig(dt=1e-3, t_end=1.0))
    assert len(patterns) == sum(key[0] == "pattern" for key in mesh._cache) == 1
    for pattern, (pos, indices, indptr) in patterns:
        assert np.array_equal(pattern.pos, pos)
        assert np.array_equal(pattern.indices, indices) and np.array_equal(pattern.indptr, indptr)
    assert len(systems) == (3 if physics.mode == "turbidity" else 2)
    assert any(corner is not None for _, corner, _ in systems) == mesh.periodic
    full = assemble._pattern(model.W, model.W)
    vorticity = model.Nw_dt.data + 0.5 * (model.nu * model.L.data)
    systems.append((model.systems["vorticity"], None,
                    pattern_oracle.system_pattern(full, model.W.dim, vorticity, model.iw)))
    for system, _, (data, indices, indptr, take) in systems:
        S = system.static
        assert np.array_equal(S.data, data)
        assert np.array_equal(S.indices, indices) and np.array_equal(S.indptr, indptr)
        assert (system.take is None and take is None) or np.array_equal(system.take, take)


@pytest.mark.parametrize("case, N", [("desk", 1), ("desk", 2), ("torus", 1), ("torus", 2), ("sim1", 2)])
def test_divergence_matches_its_pattern_oracle(case, N):
    """D, written row by row without a pattern, is the form summed on its
    (DG, RT) cell pattern (tests/pattern_oracle.py) byte for byte: its
    values, indices and row pointers, dtypes included."""
    mesh, _ = oracle_case(case)
    U, Q = make_space(mesh, "RT", N), make_space(mesh, "DG", N - 1)
    D, oracle = assemble.assemble_div(U, Q), pattern_oracle.divergence(U, Q)
    assert D.shape == oracle.shape
    for name in ("data", "indices", "indptr"):
        ours, theirs = getattr(D, name), getattr(oracle, name)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name


@pytest.mark.parametrize("case", ["desk", "box"])
def test_vorticity_refines_against_the_weak_curls_factor(case, request):
    """The vorticity system factors nothing of its own: it refines against
    the weak curl's factor of N seen as one of N/dt, and its solve matches
    a solve against a factor of its own static to 1e-13 of its size."""
    model, state = request.getfixturevalue(case)
    system = model.systems["vorticity"]
    assert system.lu.lu is model.systems["curl"].lu and system.lu.c == 1.0 / model.time.dt
    C = assemble_vorticity_convection(state.u_half, model.U, model.W)
    rhs = (model.Nw_dt @ state.omega)[model.iw]
    x, rep = system.solve(rhs, scale=0.5, skew_values=C)
    y, own = linsolve.lu_solve(system.matrix(0.5, C), rhs, linsolve.CachedLU(system.static))
    assert not rep.fallback and not own.fallback and rep.refinements >= 1
    assert np.max(np.abs(x - y)) <= 1e-13 * np.max(np.abs(y))


def set_up_config(case, outdir):
    """One step of the desk configuration writing a snapshot every step, or
    of the step-time benchmark's periodic box (perfbench/workloads.py)."""
    if case == "desk":
        cfg = parse_config_file(os.path.join(CONFIGS, "lock_exchange.cfg"))
        cfg.output["vtk_every"] = 1
    else:
        path = os.path.join(CONFIGS, "..", "perfbench", "workloads.py")
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        cfg = parse_config(workloads.PERIODIC_CFG.format(seed=1))
    cfg.time["t_end"] = cfg.time["dt"]
    cfg.output["dir"] = str(outdir)
    return cfg


@pytest.mark.parametrize("case", ["desk", "box"])
def test_run_builds_only_the_cg_pattern(case, tmp_path):
    """A run's set-up, its snapshots' pressures included, builds one cell
    pattern, CG x CG: the divergence D is written row by row, M, B and R
    are applied per cell, the pressure is solved on a tree of cells and
    its mean takes the integrals <q_i, 1>, so no DG x RT, RT x RT, RT x CG
    or DG x DG pattern is built."""
    result = driver.run(set_up_config(case, tmp_path), collect_rows=False)
    N = result.model.degree
    patterns = {key for key in result.model.mesh._cache if key[0] == "pattern"}
    assert patterns == {("pattern", "CG", N, "CG", N)}
    if case == "desk":
        assert "pressure_tree" in vars(result.model) and len(os.listdir(tmp_path)) > 1


def test_snapshot_0_takes_the_weak_curl_of_step_1(tmp_path, monkeypatch):
    """One desk step writing a snapshot every step solves curl_h once for
    omega^0, once per startup pass after the first and once in step 1,
    whose om~ = curl_h psi^{1/2} snapshot 0 writes: it solves none of its
    own."""
    calls = []
    curl_h = Model.curl_h

    def counted(model, psi):
        calls.append(psi)
        return curl_h(model, psi)

    monkeypatch.setattr(Model, "curl_h", counted)
    result = driver.run(set_up_config("desk", tmp_path), collect_rows=False)
    assert {"snapshot_00000000.vtk", "snapshot_00000001.vtk"} <= set(os.listdir(tmp_path))
    assert len(calls) == 1 + (result.startup.iterations - 1) + 1


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
    S = model.systems["momentum"].static
    assert (S[:m, :m] != model.L[psi][:, psi]).nnz == 0
    M = assemble_mass(model.U)
    ZMZ = model.Z.T @ M @ model.Z
    assert S.shape == ZMZ.shape
    assert abs(S - ZMZ).max() <= 1e-14 * abs(ZMZ).max()
    if model.harmonic is not None:
        assert S[:m, m:].count_nonzero() == 0 and S[m:, :m].count_nonzero() == 0
        H = model.harmonic
        HMH = H.T @ (M @ H)
        assert np.max(np.abs(S[m:, m:].toarray() - HMH)) <= 1e-14 * np.max(np.abs(HMH))


@pytest.mark.parametrize("case", ["desk", "box"])
def test_step_builds_only_rotation_and_convection(case, request, monkeypatch):
    """Without a fallback a step constructs no compressed sparse matrix:
    each per-step system refills its own matrix with its rotation or
    convection, and the momentum load is formed in W."""
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
    assert built == []


class Forbidden:
    """Stands in for a matrix that a step or the ledger must not touch: any
    product with it, or any use of it, fails naming it."""

    __array_ufunc__ = None  # so that x @ it reaches __rmatmul__

    def __init__(self, name):
        self.name = name

    def __matmul__(self, other):
        raise AssertionError(f"a product with {self.name} was formed")

    __rmatmul__ = __matmul__

    def __getattr__(self, attr):
        raise AssertionError(f"{self.name}.{attr} was used")


def case_ic(model):
    """The initial condition of the desk and box fixtures."""
    return LockInitialCondition() if model.physics.mode == "turbidity" else RandomSolenoidalInitialCondition(seed=5)


def same_state(a, b):
    for name in ("u_half", "omega", "phi"):
        if getattr(b, name) is not None:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(a.psi_0, b.psi_0)


@pytest.mark.parametrize("case", ["desk", "box"])
def test_step_forms_no_velocity_space_load(case, request, monkeypatch):
    """A step applies none of the per-cell velocity forms (the RT mass M,
    the rotation R, the buoyancy B) and forms no product with the curl of
    CG in RT (so none with the weak curl M curl): the momentum load comes
    from psi^{k+1/2} and the W forms.  The startup forms no product with
    the curl either and applies M alone, once, to project u^0, which the
    initial condition built beforehand: its passes take the step's solve.
    Nor does the ledger apply one, Engine.__init__ or Engine.update: it
    reads the stream functions.  Both states and the ledger row are the
    same as without the checks, bit for bit."""
    model, state = request.getfixturevalue(case)
    expected, _, _ = step(state, model)
    expected_start, _ = initialize(model, case_ic(model))
    expected_row = Engine(model, expected_start).update(state, expected)
    applied = []
    apply = model.velocity.apply

    def recorded(**terms):
        applied.append(sorted(terms))
        return apply(**terms)

    ic = case_ic(model)
    built = ic.build(model)  # the random start builds u^0 from the curl
    monkeypatch.setattr(ic, "build", lambda model: built)
    monkeypatch.setattr(model.velocity, "apply", recorded)
    monkeypatch.setattr(model, "curl", Forbidden("curl"))
    start, _ = initialize(model, ic)
    monkeypatch.setattr(model, "velocity", Forbidden("velocity"))
    new, _, _ = step(state, model)
    row = Engine(model, start).update(state, new)
    monkeypatch.undo()
    assert applied == [["a"]]
    same_state(start, expected_start)
    same_state(new, expected)
    assert row == expected_row


def momentum_load_cases():
    geom = ChannelGeometry(length=13.0, height=1.0, lock_length=1.0)
    desk = build_channel_mesh(geom, 50, 5, "crisscross")
    torus = build_periodic_rect_mesh(2 * np.pi, 2 * np.pi, 16, 16, "crisscross")
    return {f"desk-N{N}": (desk, N, PhysicsConfig(mode="turbidity")) for N in (1, 2)} | {
        f"torus-N{N}": (torus, N, PhysicsConfig(mode="homogeneous", nu=0.01)) for N in (1, 2)}


@pytest.mark.parametrize("case", sorted(momentum_load_cases()))
def test_momentum_load_identities(case):
    """The W forms a step's momentum load is formed from are the
    velocity-space products seen through Z, to 1e-14 relative: Z^T Lc = L
    on the psi rows and zero on the torus's harmonic rows, with Lc = M curl
    the weak curl, and, with particles, Z^T B = -Cb^T = Cb on the psi
    rows, whose functions vanish on the walls."""
    mesh, N, physics = momentum_load_cases()[case]
    model = Model(mesh, N, physics, TimeConfig(dt=1e-3, t_end=1.0))
    n = len(model.psi_dofs)

    def close(A, B):
        A, B = sp.csr_matrix(A).toarray(), sp.csr_matrix(B).toarray()
        return np.max(np.abs(A - B)) <= 1e-14 * np.max(np.abs(B))

    ZtLc = model.Z.T @ (assemble_mass(model.U) @ model.curl)
    assert close(ZtLc[:n], model.L[model.psi_dofs])
    assert np.max(np.abs(ZtLc[n:].toarray()), initial=0.0) <= 1e-14 * np.max(np.abs(model.L.data))
    if physics.mode == "turbidity":
        ZtB = model.Z.T @ buoyancy_matrix(model.U, model.W)
        assert ZtB.shape[0] == n
        assert close(ZtB, -model.baroclinic.T[model.psi_dofs])
        assert close(ZtB, model.baroclinic[model.psi_dofs])


@pytest.mark.parametrize("case", ["desk", "box"])
def test_startup_passes_start_from_the_previous_pass(case, request, monkeypatch):
    """After the projection of u^0 onto psi^0, each startup pass's momentum
    solve starts from the previous pass's midpoint (psi + psi^0)/2, the
    first cold, and the state hands the last pass's psi on as psi_0, of
    which u_half is Z psi_0 bit for bit."""
    model, _ = request.getfixturevalue(case)
    solves = []
    solve = assemble.System.solve

    def recorded(system, rhs, x0=None, **kwargs):
        x, rep = solve(system, rhs, x0=x0, **kwargs)
        if system.name == "momentum":
            solves.append((x0, x))
        return x, rep

    monkeypatch.setattr(assemble.System, "solve", recorded)
    state, rep = initialize(model, case_ic(model))
    monkeypatch.undo()
    (_, psi0), passes = solves[0], solves[1:]
    assert len(passes) == rep.iterations > 1
    assert passes[0][0] is None
    for (_, previous), (x0, _) in zip(passes, passes[1:]):
        assert np.array_equal(x0, 0.5 * ((2.0 * previous - psi0) + psi0))
    assert np.array_equal(state.psi_0, 2.0 * passes[-1][1] - psi0)
    assert np.array_equal(state.u_half, model.Z @ state.psi_0)


@pytest.mark.parametrize("name", ["lock", "taylor_green", "random"])
def test_startup_projects_u0_onto_the_stream_function(name, monkeypatch):
    """initialize projects each initial condition's u^0 onto psi^0 in the
    RT mass, its first momentum solve: Z^T M (u^0 - Z psi^0) vanishes to
    1e-14 relative, and the lock's psi^0 is exactly 0.  The start's
    vorticity is the weak curl of psi^0, for the lock exactly 0."""
    if name == "lock":
        model, ic = turbidity_model(), LockInitialCondition()
    elif name == "taylor_green":
        model, ic = homogeneous_model(nx=8, ny=8, nu=0.01), TaylorGreenInitialCondition()
    else:
        model, ic = homogeneous_model(nx=8, ny=8, nu=0.01), RandomSolenoidalInitialCondition(seed=5)
    solves = []
    solve = assemble.System.solve

    def recorded(system, *args, **kwargs):
        x, rep = solve(system, *args, **kwargs)
        if system.name == "momentum":
            solves.append(x)
        return x, rep

    monkeypatch.setattr(assemble.System, "solve", recorded)
    state, _ = initialize(model, ic)
    monkeypatch.undo()
    psi0, u0 = solves[0], ic.build(model)[0]
    Z, M = model.Z, assemble_mass(model.U)
    gap, load = Z.T @ (M @ (u0 - Z @ psi0)), Z.T @ (M @ u0)
    if name == "lock":
        assert not np.any(psi0) and not np.any(state.omega)
    else:
        assert np.max(np.abs(gap)) <= 1e-14 * np.max(np.abs(load))
    assert np.array_equal(state.omega, model.curl_h(psi0)[0])


@pytest.mark.parametrize("case", sorted(momentum_load_cases()))
def test_weak_curl_load_is_the_curl_curl_of_psi(case):
    """curl_h forms its load as L psi, psi on its CG dofs, to 1e-14
    relative of the velocity-space load Lc^T Z psi it stands for, the
    torus's harmonic amplitudes included."""
    mesh, N, physics = momentum_load_cases()[case]
    model = Model(mesh, N, physics, TimeConfig(dt=1e-3, t_end=1.0))
    psi = np.random.default_rng(4).standard_normal(model.Z.shape[1])
    rhs = []
    curl = model.systems["curl"]
    solve = curl.solve

    def recorded(b, *args, **kwargs):
        rhs.append(b)
        return solve(b, *args, **kwargs)

    curl.solve = recorded
    try:
        model.curl_h(psi)
    finally:
        del curl.solve
    oracle = ((assemble_mass(model.U) @ model.curl).T @ (model.Z @ psi))[model.iw]
    assert np.max(np.abs(rhs[0] - oracle)) <= 1e-14 * np.max(np.abs(oracle))


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
    """The weak-curl system, and the startup's projection onto the stream
    function, are solved against factors of themselves: the first solve
    is at the roundoff floor."""
    model, state = request.getfixturevalue(case)
    solves = record_solves(monkeypatch)
    initialize(model, case_ic(model))
    setup = solves[:2]  # the projection and omega^0
    assert [name for name, _ in setup] == ["momentum", "curl"]
    solves.clear()
    model.curl_h(state.psi_0)
    step(state, model)
    own = [rep for _, rep in setup] + [rep for name, rep in solves if name == "curl"]
    assert len(own) == 2 + (2 if model.physics.mode == "turbidity" else 1)
    assert all(rep.refinements == 0 for rep in own)


@pytest.mark.parametrize("name", ["curl", "momentum", "transport", "torus momentum"])
def test_factor_settings_change_time_alone(desk, factorizations, name):
    """CachedLU's SuperLU panel size and relaxation leave the factor's
    fill and its answers as scipy's defaults have them, under the same
    ordering of the same matrix (its exact zeros dropped): the torus
    momentum system has its dense border.  The right side is S x for a
    random x."""
    if name == "torus momentum":
        system = homogeneous_model(nx=32, ny=32).systems["momentum"]
    else:
        model, _ = desk
        system = model.systems[name]
    csc = system.static.tocsc(copy=True)
    csc.eliminate_zeros()
    factorizations.clear()
    ours = linsolve.CachedLU(system.static)
    linsolve.spla.splu(csc, permc_spec="MMD_AT_PLUS_A")
    tuned, default = factorizations
    assert tuned.L.nnz + tuned.U.nnz == default.L.nnz + default.U.nnz
    b = system.static @ np.random.default_rng(7).standard_normal(csc.shape[0])
    x = default.solve(b)
    assert np.abs(ours.solve(b) - x).max() <= 1e-13 * np.abs(x).max()


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
        assert np.array_equal(model.systems[name].static.data, data), name
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.physics.grashof = 5e6
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.time.dt = 1e-2  # dt is baked into the static operators too
