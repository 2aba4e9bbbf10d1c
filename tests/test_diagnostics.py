import numpy as np
import pytest

from dualflow.mesh import ChannelGeometry, build_channel_mesh, build_periodic_rect_mesh
from dualflow.spaces import Field, constant_coefficients, project
from dualflow.stepper import (
    LockInitialCondition,
    Model,
    PhysicsConfig,
    TimeConfig,
    initialize,
    step,
)
from dualflow import assemble
from dualflow.diagnostics import Engine, FrontTracker, sedimentation_rate, suspended_mass
from dualflow.mesh import WALL_TAGS


def weighted_flux(space, weight_fn, qdegree):
    """v[i] = integral over the whole boundary of weight(x) grad(w_i).n."""
    out = np.zeros(space.dim)
    for tag in WALL_TAGS:
        tab = space.boundary_data(tag, qdegree)
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
    gdot = assemble.assemble_gradient_dot(model.W, model.qdeg)
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
    new, audit = step(state, model)
    row = eng.update(state, new, audit)
    for name in ("K", "Ep", "eps_v", "eps_s", "Ev", "Es", "E_res", "enstrophy"):
        assert abs(getattr(row, name)) < 1e-14, name


def test_suspended_mass_starts_at_one_and_decays():
    model = make_model()
    state, _ = initialize(model, LockInitialCondition())
    eng = Engine(model, state)
    assert abs(suspended_mass(model, state.phi, eng.m_p0) - 1.0) < 1e-14
    prev = state
    state, audit = step(state, model)
    row = eng.update(prev, state, audit)
    expected = 1.0 - model.time.dt * model.physics.settling_velocity * audit.phi_mid_bottom / eng.m_p0
    assert abs(row.m_p_ratio - expected) < 1e-10


def test_suspended_mass_constant_without_settling():
    model = make_model(u_s=0.0)
    state, _ = initialize(model, LockInitialCondition())
    eng = Engine(model, state)
    for _ in range(3):
        prev = state
        state, audit = step(state, model)
        row = eng.update(prev, state, audit)
        assert abs(row.m_p_ratio - 1.0) < 1e-10


def test_suspended_mass_zero_initial_rejected():
    model = make_model()
    phi = Field(model.W, np.zeros(model.W.dim))
    with pytest.raises(ValueError):
        suspended_mass(model, phi, 0.0)


def test_sedimentation_rate_examples():
    model = make_model(L=13.0, u_s=0.02)
    zero = Field(model.W, np.zeros(model.W.dim))
    assert sedimentation_rate(model, zero) == 0.0
    phi1 = project(model.W, lambda x, y: 1.0, model.qdeg)
    # bottom wall has length 13: mdot_s = -0.02 * 13 = -0.26
    assert abs(sedimentation_rate(model, phi1) + 0.26) < 1e-12


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
    gdot = assemble.assemble_gradient_dot(model.W, model.qdeg)
    budget_form = u_s * model.integral_w(phi.coefficients) - kappa * float(gdot @ phi.coefficients)
    assert abs(ref1 - budget_form) < 1e-10


def test_energy_residual_identity_short_run():
    model = make_model(nx=26, ny=2, N=2)
    state, _ = initialize(model, LockInitialCondition())
    eng = Engine(model, state)
    for _ in range(5):
        prev = state
        state, audit = step(state, model)
        row = eng.update(prev, state, audit)
        assert abs(row.eres_gap) < 1e-12
        assert abs(row.mass_residual) < 1e-12


def test_ledger_requires_consecutive_states():
    model = make_model()
    state, _ = initialize(model, LockInitialCondition())
    eng = Engine(model, state)
    new, audit = step(state, model)
    with pytest.raises(ValueError):
        eng.update(new, new, audit)
