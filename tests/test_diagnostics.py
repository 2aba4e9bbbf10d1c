import re

import numpy as np
import pytest

from dualflow.assemble import assemble_mass
from dualflow.mesh import ChannelGeometry, build_channel_mesh, build_periodic_rect_mesh
from dualflow.spaces import constant_coefficients
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
from dualflow.diagnostics import FRONT_THRESHOLD, Engine, FrontTracker
from dualflow.mesh import WALL_TAGS

from util_budget import recording_step, step_budget
from util_project import project
from util_rotation import buoyancy_matrix
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
    gdot = gradient_dot(model.W, 2 * model.degree + 2)
    grad_term = float(gdot @ phi)  # <grad phi, e_g>
    grad_y = -grad_term  # grad y = (0,1) = -e_g, exactly, at every quadrature point
    flux = float(weighted_flux(model.W, lambda x, y: y, model.degree + 2) @ phi)
    return -u_s * grad_term - kappa * (grad_y - flux)


def make_model(L=13.0, nx=26, ny=2, N=1, u_s=0.02, dt=1e-3, lock=1.0, height=1.0):
    geom = ChannelGeometry(length=L, height=height, lock_length=lock)
    mesh = build_channel_mesh(geom, nx, ny, "left")
    phys = PhysicsConfig(mode="turbidity", grashof=5e6, schmidt=1.0, settling_velocity=u_s)
    return Model(mesh, N, phys, TimeConfig(dt=dt, t_end=1.0))


def test_potential_energy_constant_phi():
    # phi = 1 on a unit-height channel of length L: Ep = int y = L/2
    model = make_model(L=3.0, nx=6, ny=2, lock=1.0)
    phi = project(model.W, lambda x, y: 1.0)
    assert abs(model.potential_energy(phi) - 1.5) < 1e-12


def test_zero_state_ledger_row():
    model = make_model(u_s=0.0)
    phi0 = project(model.W, lambda x, y: 0.0)

    class IC:
        def build(self, m):
            return np.zeros(m.U.dim), phi0, 0  # no solve, no fallback

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
    assert abs(model.integral_w(state.phi) / eng.m_p0 - 1.0) < 1e-14
    prev = state
    state, _, _ = step(state, model)
    row = eng.update(prev, state)
    phi_mid_bottom = model.bottom_integral(0.5 * (state.phi + prev.phi))
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
    return SimulationState(k=k, u_half=np.zeros(model.U.dim),
                           omega=np.zeros(model.W.dim), phi=phi,
                           psi_0=np.zeros(model.Z.shape[1]))


def test_zero_initial_mass_gives_zero_ratio():
    """With no particles at the start the mass ratio is undefined; an
    Engine started from phi^0 = 0 writes 0 and raises nothing."""
    model = make_model()
    zero = np.zeros(model.W.dim)
    eng = Engine(model, hand_built_state(model, 0, zero))
    assert eng.m_p0 == 0.0
    phi1 = project(model.W, lambda x, y: 1.0)
    assert eng.update(hand_built_state(model, 0, zero), hand_built_state(model, 1, phi1)).m_p_ratio == 0.0


def test_sedimentation_rate_examples():
    """The row's mdot_s is the settling outflux -u_s int_{Gamma3} phi."""
    model = make_model(L=13.0, u_s=0.02)
    zero = np.zeros(model.W.dim)
    phi1 = project(model.W, lambda x, y: 1.0)
    eng = Engine(model, hand_built_state(model, 0, phi1))
    assert eng.update(hand_built_state(model, 0, phi1), hand_built_state(model, 1, zero)).mdot_s == 0.0
    # bottom wall has length 13: mdot_s = -0.02 * 13 = -0.26
    row = eng.update(hand_built_state(model, 1, zero), hand_built_state(model, 2, phi1))
    assert abs(row.mdot_s + 0.26) < 1e-12


def test_front_position_trivial_cases():
    model = make_model(nx=52, ny=4)
    zero = np.zeros(model.W.dim)
    assert FrontTracker(model).position(zero) == pytest.approx(-1.0)
    ones = constant_coefficients(model.W)
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


@pytest.mark.parametrize("case", ["desk", "imported", "on_edges"])
def test_front_sampler_matches_its_oracle(case):
    """The sampler as first built (tests/front_oracle.py) gives the same
    columns, evaluates each point in the same cell, so that the stored
    entries are the same, and gives the same weights at roundoff.  On the
    `left` 52 x 3 channel every column runs along vertical edges, so
    nearly every point lies in two cells, and the lowest one wins."""
    from types import SimpleNamespace

    from front_oracle import front_sampler
    from util_sim1 import sim1_mesh_text

    from dualflow.mesh import read_mesh_text
    from dualflow.spaces import make_space

    geom = ChannelGeometry(length=13.0, height=1.0, lock_length=1.0)
    if case == "imported":
        mesh = read_mesh_text(*sim1_mesh_text())
    elif case == "desk":
        mesh = build_channel_mesh(geom, 50, 5, "crisscross")
    else:
        mesh = build_channel_mesh(geom, 52, 3, "left")
    W = make_space(mesh, "CG", 2)
    tracker = FrontTracker(SimpleNamespace(mesh=mesh, W=W))
    columns, sampler = front_sampler(mesh, W)
    assert np.array_equal(tracker.columns, columns)
    ours = tracker.sampler.copy()
    for m in (ours, sampler):
        m.sum_duplicates()
    assert np.array_equal(ours.indptr, sampler.indptr) and np.array_equal(ours.indices, sampler.indices)
    assert np.abs(ours.data - sampler.data).max() <= 1e-14


def test_front_positions_match_the_oracle_on_the_desk():
    """Over 200 steps of configs/lock_exchange.cfg the front is in the
    column the oracle sampler puts it in, step by step, and the depth
    averages agree at roundoff."""
    import os

    from front_oracle import front_sampler

    from dualflow.config import parse_config_file
    from dualflow.driver import build_model
    from dualflow.stepper import initial_condition

    cfg = parse_config_file(os.path.join(os.path.dirname(__file__), "..", "configs", "lock_exchange.cfg"))
    model = build_model(cfg)
    tracker = FrontTracker(model)
    columns, sampler = front_sampler(model.mesh, model.W)
    state, _ = initialize(model, initial_condition(cfg.initial))
    for _ in range(200):
        state, _, _ = step(state, model)
        averages = sampler @ state.phi
        assert np.abs(tracker.depth_averages(state.phi) - averages).max() <= 1e-14
        assert tracker.position(state.phi) == columns[np.flatnonzero(averages >= FRONT_THRESHOLD)[-1]]


def refusals(mesh):
    """The messages of the ValueErrors of FrontTracker and of its oracle
    on `mesh`, with a CG1 space."""
    from types import SimpleNamespace

    from front_oracle import front_sampler

    from dualflow.spaces import make_space

    W = make_space(mesh, "CG", 1)
    with pytest.raises(ValueError) as oracle:
        front_sampler(mesh, W)
    with pytest.raises(ValueError) as exc:
        FrontTracker(SimpleNamespace(mesh=mesh, W=W))
    return str(exc.value), str(oracle.value)


def test_front_sampler_refuses_a_point_outside_the_mesh(channel_with_hole):
    """The column x = 0.5 crosses the hole: its sample points in
    (0.5, 1) lie in no cell.  The refusal names the point the oracle
    names."""
    ours, oracle = refusals(channel_with_hole)
    assert re.fullmatch(r"front sample point \(0\.5, 0\.\d+\) not inside the mesh", ours)
    assert ours == oracle


def test_front_sampler_refuses_a_column_in_a_gap(channel_with_hole):
    """With the middle column of quads taken out, no cell is a candidate
    for the column x = 0.5: its first sample point is refused, as the
    oracle refuses it."""
    from dualflow.elements import LOCAL_EDGES
    from dualflow.mesh import _finalize

    mesh = channel_with_hole
    keep = np.abs(mesh.cell_coords.mean(axis=1)[:, 0] - 0.5) > 0.5
    cells = mesh.cells[keep]
    pairs = np.stack([np.sort(cells[:, [a, b]], axis=1) for a, b in LOCAL_EDGES], axis=1)
    gap = _finalize(mesh.vertices, cells, mesh.cell_coords[keep],
                    pairs[..., 0] * mesh.num_vertices + pairs[..., 1], periodic=False)
    ours, oracle = refusals(gap)
    assert ours.startswith("front sample point (0.5, 0.0") and ours == oracle


def test_eps_s_ref1_examples():
    model = make_model(L=2.0, nx=4, ny=2, lock=1.0, u_s=0.02)
    u_s, kappa = model.physics.settling_velocity, model.kappa
    const = project(model.W, lambda x, y: 0.8)
    assert abs(eps_s_ref1(model, const, u_s, kappa)) < 1e-12
    # phi = 1 - y on a unit-height channel: value = -u_s * area... per unit area
    phi = project(model.W, lambda x, y: 1.0 - y)
    # -u_s <e_g, grad phi> = -u_s * area; diffusive bracket vanishes
    assert abs(eps_s_ref1(model, phi, u_s, kappa) + 0.02 * model.area) < 1e-12


def test_eps_s_ref1_matches_budget_form_on_torus():
    """For mean-zero phi on a torus both dissipation forms agree (here: 0)."""
    mesh = build_periodic_rect_mesh(1.0, 1.0, 4, 4, "left")
    phys = PhysicsConfig(mode="homogeneous", nu=0.1)
    model = Model(mesh, 2, phys, TimeConfig(dt=0.1, t_end=1.0))
    rng = np.random.default_rng(0)
    coef = rng.standard_normal(model.W.dim)
    ones = constant_coefficients(model.W)
    mean = model.integral_w(coef) / model.area
    phi = coef - mean * ones
    u_s, kappa = 0.02, 1e-3
    ref1 = eps_s_ref1(model, phi, u_s, kappa)
    gdot = gradient_dot(model.W, 2 * model.degree + 2)
    budget_form = u_s * model.integral_w(phi) - kappa * float(gdot @ phi)
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
        assert seen.pop("psi") is state.psi_0
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
    divergence is measured from u_half, not taken from a gate."""
    model = make_model(L=3.0, nx=6, ny=2)
    rng = np.random.default_rng(4)

    def random_state(k):
        return SimulationState(k=k, u_half=rng.standard_normal(model.U.dim),
                               omega=rng.standard_normal(model.W.dim),
                               phi=rng.standard_normal(model.W.dim),
                               psi_0=rng.standard_normal(model.Z.shape[1]))

    prev, new = random_state(3), random_state(4)
    eng = Engine(model, prev)
    row = eng.update(prev, new)
    phi_mid = 0.5 * (new.phi + prev.phi)
    for name, value in step_budget(model, prev, new, new.omega, new.phi, phi_mid).items():
        assert getattr(row, name) == value != 0.0, name
    assert row.div_inf > 1e-10
    dt = model.time.dt
    assert row.eres_gap == row.E_res - 0.5 * dt * (row.exchange - eng.base_exchange)


@pytest.mark.parametrize("case", ["channel", "box"])
def test_stream_function_ledger_is_the_velocity_ledger(case):
    """The ledger's terms, read from the stream functions and the W forms,
    are the velocity-space ones of u = Z psi to roundoff, on random
    fields: K = psi^T S psi / 2 is u^T M u / 2 to 1e-13 relative, and
    eps_v and the exchange are nu (Lc om) . u_mid and (B phi) . u to 1e-13
    of the sum of the magnitudes of their products."""
    if case == "channel":
        model = make_model(L=3.0, nx=6, ny=2, N=2)
    else:
        mesh = build_periodic_rect_mesh(1.0, 1.0, 4, 4, "left")
        model = Model(mesh, 2, PhysicsConfig(mode="homogeneous", nu=0.1), TimeConfig(dt=0.1, t_end=1.0))
    rng = np.random.default_rng(9)

    def random_state(k):
        psi = rng.standard_normal(model.Z.shape[1])
        phi = rng.standard_normal(model.W.dim) if case == "channel" else None
        return SimulationState(k=k, u_half=model.Z @ psi, psi_0=psi, phi=phi,
                               omega=rng.standard_normal(model.W.dim))

    def dot(a, b):
        return float(a @ b), float(np.abs(a) @ np.abs(b))

    prev, new = random_state(0), random_state(1)
    eng = Engine(model, prev)
    row = eng.update(prev, new)
    u, u_mid = new.u_half, 0.5 * (prev.u_half + new.u_half)
    M = assemble_mass(model.U)
    expected = {"K": dot(u, 0.5 * (M @ u)),
                "eps_v": dot(model.nu * (M @ (model.curl @ new.omega)), u_mid)}
    if case == "channel":
        expected["exchange"] = dot(buoyancy_matrix(model.U, model.W) @ new.phi, u)
    for name, (value, scale) in expected.items():
        assert abs(getattr(row, name) - value) <= 1e-13 * scale, name
    assert eng.K_half0 == pytest.approx(model.kinetic_energy(prev.u_half), rel=1e-13)
