import numpy as np
import pytest

from dualflow.mesh import ChannelGeometry, build_channel_mesh, build_periodic_rect_mesh
from dualflow.spaces import Field, constant_coefficients
from dualflow.stepper import (
    LockInitialCondition,
    Model,
    PhysicsConfig,
    SimulationState,
    TaylorGreenInitialCondition,
    TimeConfig,
    initialize,
    step,
)
from dualflow.diagnostics import Engine, FrontTracker
from dualflow.mesh import WALL_TAGS

from util_budget import recording_step, step_budget
from util_project import project
from util_tabulate import gradient_dot, wall_tab


def weighted_flux(space, weight_fn, qdegree):
    """v[i] = integral over the whole boundary of weight(x) grad(w_i).n."""
    out = np.zeros(space.dim)
    for tag in WALL_TAGS:
        tab = wall_tab(space, tag, qdegree)
        if len(tab.edges) == 0:
            continue
        wq = weight_fn(tab.points[..., 0], tab.points[..., 1])
        gn = np.einsum("eqnd,ed->eqn", tab.grad, tab.normals)
        local = np.einsum("eq,eqn->en", tab.weights * wq, gn)
        np.add.at(out, tab.dofs.ravel(), local.ravel())
    return out


def eps_s_ref1(model, phi, u_s, kappa):
    """Settling dissipation in the form of the adapted-mesh reference:

        -u_s <e_g, grad phi> - kappa * { <grad phi, grad y> - contour y grad(phi).n }

    A cross-literature comparison of the budget's eps_s; never part of a run.
    """
    gdot = gradient_dot(model.W, model.qdeg)
    grad_term = float(gdot @ phi.coefficients)  # <grad phi, e_g>
    grad_y = -grad_term  # grad y = (0,1) = -e_g, exactly, at every quadrature point
    flux = float(weighted_flux(model.W, lambda x, y: y, model.bdeg) @ phi.coefficients)
    return -u_s * grad_term - kappa * (grad_y - flux)


def make_model(L=13.0, nx=26, ny=2, N=1, u_s=0.02, dt=1e-3, lock=1.0, height=1.0):
    geom = ChannelGeometry(length=L, height=height, lock_length=lock)
    mesh = build_channel_mesh(geom, nx, ny, "left")
    phys = PhysicsConfig(mode="turbidity", grashof=5e6, schmidt=1.0, settling_velocity=u_s)
    return Model(mesh, N, phys, TimeConfig(dt=dt, t_end=1.0))


def test_potential_energy_constant_phi():
    # phi = 1 on a unit-height channel of length L: Ep = int y = L/2
    model = make_model(L=3.0, nx=6, ny=2, lock=1.0)
    phi = project(model.W, lambda x, y: 1.0, model.qdeg)
    assert abs(model.potential_energy(phi) - 1.5) < 1e-12


def test_zero_state_ledger_row():
    model = make_model(u_s=0.0)
    phi0 = project(model.W, lambda x, y: 0.0, model.qdeg)

    class IC:
        def build(self, m):
            return (
                Field(m.U, np.zeros(m.U.dim)),
                Field(m.W, np.zeros(m.W.dim)),
                phi0,
            )

    state, _ = initialize(model, IC())
    eng = Engine(model, state)
    new, _, _ = step(state, model)
    row = eng.update(state, new)
    for name in ("K", "Ep", "eps_v", "eps_s", "Ev", "Es", "E_res", "enstrophy"):
        assert abs(getattr(row, name)) < 1e-14, name


def test_suspended_mass_starts_at_one_and_decays():
    model = make_model()
    state, _ = initialize(model, LockInitialCondition())
    eng = Engine(model, state)
    assert abs(model.integral_w(state.phi.coefficients) / eng.m_p0 - 1.0) < 1e-14
    prev = state
    state, _, _ = step(state, model)
    row = eng.update(prev, state)
    phi_mid_bottom = model.bottom_integral(0.5 * (state.phi.coefficients + prev.phi.coefficients))
    expected = 1.0 - model.time.dt * model.physics.settling_velocity * phi_mid_bottom / eng.m_p0
    assert abs(row.m_p_ratio - expected) < 1e-10


def test_suspended_mass_constant_without_settling():
    model = make_model(u_s=0.0)
    state, _ = initialize(model, LockInitialCondition())
    eng = Engine(model, state)
    for _ in range(3):
        prev = state
        state, _, _ = step(state, model)
        row = eng.update(prev, state)
        assert abs(row.m_p_ratio - 1.0) < 1e-10


def hand_built_state(model, k, phi):
    """A state at step k with zero velocity and vorticity and the given phi."""
    return SimulationState(k=k, u_half=Field(model.U, np.zeros(model.U.dim)),
                           omega=Field(model.W, np.zeros(model.W.dim)), phi=phi)


def test_zero_initial_mass_gives_zero_ratio():
    """With no particles at the start the mass ratio is undefined; an
    Engine started from phi^0 = 0 writes 0 and raises nothing."""
    model = make_model()
    zero = Field(model.W, np.zeros(model.W.dim))
    eng = Engine(model, hand_built_state(model, 0, zero))
    assert eng.m_p0 == 0.0
    phi1 = project(model.W, lambda x, y: 1.0, model.qdeg)
    assert eng.update(hand_built_state(model, 0, zero), hand_built_state(model, 1, phi1)).m_p_ratio == 0.0


def test_sedimentation_rate_examples():
    """The row's mdot_s is the settling outflux -u_s int_{Gamma3} phi."""
    model = make_model(L=13.0, u_s=0.02)
    zero = Field(model.W, np.zeros(model.W.dim))
    phi1 = project(model.W, lambda x, y: 1.0, model.qdeg)
    eng = Engine(model, hand_built_state(model, 0, phi1))
    assert eng.update(hand_built_state(model, 0, phi1), hand_built_state(model, 1, zero)).mdot_s == 0.0
    # bottom wall has length 13: mdot_s = -0.02 * 13 = -0.26
    row = eng.update(hand_built_state(model, 1, zero), hand_built_state(model, 2, phi1))
    assert abs(row.mdot_s + 0.26) < 1e-12


def test_front_position_trivial_cases():
    model = make_model(nx=52, ny=4)
    zero = Field(model.W, np.zeros(model.W.dim))
    assert FrontTracker(model).position(zero) == pytest.approx(-1.0)
    ones = Field(model.W, constant_coefficients(model.W))
    assert FrontTracker(model).position(ones) == pytest.approx(12.0)
    # sharp lock indicator (nodal, ringing-free): front within one column of x = 0
    from dualflow.spaces import interpolate

    sharp = interpolate(model.W, lambda x, y: 0.5 * (1.0 - np.tanh(x / 0.02)))
    tracker = FrontTracker(model)
    spacing = tracker.columns[1] - tracker.columns[0]
    assert abs(tracker.position(sharp)) <= spacing + 1e-12


@pytest.mark.parametrize("imported", [False, True])
def test_depth_averages_of_a_linear_field(imported):
    """Each sample point is evaluated in one cell containing it, also where
    it sits on a shared edge or vertex: the depth average of a linear
    field is its value at mid-depth in every column."""
    from types import SimpleNamespace

    from util_sim1 import sim1_mesh_text

    from dualflow.mesh import read_mesh_text
    from dualflow.spaces import interpolate, make_space

    if imported:
        mesh = read_mesh_text(*sim1_mesh_text())
    else:
        mesh = build_channel_mesh(ChannelGeometry(length=13.0, height=1.0, lock_length=1.0), 50, 5, "crisscross")
    W = make_space(mesh, "CG", 2)
    tracker = FrontTracker(SimpleNamespace(mesh=mesh, W=W))
    phi = interpolate(W, lambda x, y: 0.3 - 0.7 * x + 1.9 * y)
    expected = 0.3 - 0.7 * tracker.columns + 1.9 * 0.5 * mesh.geometry.height
    assert np.max(np.abs(tracker.depth_averages(phi) - expected)) < 1e-12


def test_front_sampler_refuses_a_point_outside_the_mesh(channel_with_hole):
    """The column x = 0.5 crosses the hole: its sample points in
    (0.5, 1) lie in no cell."""
    from types import SimpleNamespace

    from dualflow.spaces import make_space

    mesh = channel_with_hole
    with pytest.raises(ValueError, match=r"front sample point \(0\.5, 0\.\d+\) not inside the mesh"):
        FrontTracker(SimpleNamespace(mesh=mesh, W=make_space(mesh, "CG", 1)))


def test_eps_s_ref1_examples():
    model = make_model(L=2.0, nx=4, ny=2, lock=1.0, u_s=0.02)
    u_s, kappa = model.physics.settling_velocity, model.kappa
    const = project(model.W, lambda x, y: 0.8, model.qdeg)
    assert abs(eps_s_ref1(model, const, u_s, kappa)) < 1e-12
    # phi = 1 - y on a unit-height channel: value = -u_s * area... per unit area
    phi = project(model.W, lambda x, y: 1.0 - y, model.qdeg)
    # -u_s <e_g, grad phi> = -u_s * area; diffusive bracket vanishes
    assert abs(eps_s_ref1(model, phi, u_s, kappa) + 0.02 * model.area) < 1e-12


def test_eps_s_ref1_matches_budget_form_on_torus():
    """For mean-zero phi on a torus both dissipation forms agree (here: 0)."""
    mesh = build_periodic_rect_mesh(1.0, 1.0, 4, 4, "left")
    phys = PhysicsConfig(mode="homogeneous", nu=0.1)
    model = Model(mesh, 2, phys, TimeConfig(dt=0.1, t_end=1.0))
    rng = np.random.default_rng(0)
    coef = rng.standard_normal(model.W.dim)
    phi = Field(model.W, coef)
    ones = constant_coefficients(model.W)
    mean = model.integral_w(coef) / model.area
    phi = Field(model.W, coef - mean * ones)
    u_s, kappa = 0.02, 1e-3
    ref1 = eps_s_ref1(model, phi, u_s, kappa)
    gdot = gradient_dot(model.W, model.qdeg)
    budget_form = u_s * model.integral_w(phi.coefficients) - kappa * float(gdot @ phi.coefficients)
    assert abs(ref1 - budget_form) < 1e-10


def test_energy_residual_identity_short_run():
    model = make_model(nx=26, ny=2, N=2)
    state, _ = initialize(model, LockInitialCondition())
    eng = Engine(model, state)
    for _ in range(5):
        prev = state
        state, _, _ = step(state, model)
        row = eng.update(prev, state)
        assert abs(row.eres_gap) < 1e-12
        assert abs(row.mass_residual) < 1e-12


def test_ledger_requires_consecutive_states():
    model = make_model()
    state, _ = initialize(model, LockInitialCondition())
    eng = Engine(model, state)
    new, _, _ = step(state, model)
    with pytest.raises(ValueError):
        eng.update(new, new)


@pytest.mark.parametrize("case", ["channel", "box"])
def test_engine_row_equals_the_step_bookkeeping(case):
    """Over 20 steps the Engine's budget terms, computed from the states,
    equal bit for bit those the step computed from its own vectors."""
    if case == "channel":
        model = make_model(nx=26, ny=2, N=2)
        state, _ = initialize(model, LockInitialCondition())
    else:
        mesh = build_periodic_rect_mesh(2 * np.pi, 2 * np.pi, 8, 8, "left")
        model = Model(mesh, 1, PhysicsConfig(mode="homogeneous", nu=0.01), TimeConfig(dt=1e-2, t_end=1.0))
        state, _ = initialize(model, TaylorGreenInitialCondition())
    eng = Engine(model, state)
    for _ in range(20):
        new, seen = recording_step(state, model)
        row = eng.update(state, new)
        budget = step_budget(model, state, new, **seen)
        for name, value in budget.items():
            assert getattr(row, name) == value, name
        state = new
    nonzero = ("eps_v", "eps_s", "exchange", "mass_residual") if case == "channel" else ("eps_v",)
    assert all(budget[name] != 0.0 for name in nonzero)


def test_engine_row_from_two_hand_built_states():
    """A row needs nothing but two consecutive states: on random fields,
    with no step between them, each term is its formula, and the
    divergence is measured, not taken from a gate."""
    model = make_model(L=3.0, nx=6, ny=2)
    rng = np.random.default_rng(4)

    def random_state(k):
        return SimulationState(k=k, u_half=Field(model.U, rng.standard_normal(model.U.dim)),
                               omega=Field(model.W, rng.standard_normal(model.W.dim)),
                               phi=Field(model.W, rng.standard_normal(model.W.dim)))

    prev, new = random_state(3), random_state(4)
    eng = Engine(model, prev)
    row = eng.update(prev, new)
    b = model.buoyancy @ new.phi.coefficients
    phi_mid = Field(model.W, 0.5 * (new.phi.coefficients + prev.phi.coefficients))
    for name, value in step_budget(model, prev, new, new.omega, b, phi_mid).items():
        assert getattr(row, name) == value != 0.0, name
    assert row.div_inf > 1e-10
    dt = model.time.dt
    assert row.eres_gap == row.E_res - 0.5 * dt * (row.exchange - eng.base_exchange)
