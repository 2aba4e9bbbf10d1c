"""The assembled operators must agree with a per-quadrature-point oracle.

The oracle is the per-cell quadrature that the package used before every
form became a contraction of per-cell geometry with a reference tensor:
every operator is rebuilt here with einsum and an unbuffered scatter
(np.add.at) from the per-cell Piola tabulation of tests/util_tabulate.py,
straight from its integral, and compared to the package's to 1e-13
relative.  The cases are the desk lock-exchange channel at N=2, a
periodic box at N=1, and the imported sim1 mesh at N=1 and N=2; the
wall forms are checked on the three channels.  The first two have one
cell area each; sim1's barycentric splits give cells of several shapes
and areas, so a lost Jacobian, det J or edge-length factor in the
package's reference-tensor coefficients shows there.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from dualflow import assemble
from dualflow.mesh import (
    TAG_BOTTOM,
    TAG_TOP,
    WALL_TAGS,
    ChannelGeometry,
    build_channel_mesh,
    build_periodic_rect_mesh,
    read_mesh_text,
)
from dualflow.spaces import make_space
from dualflow.stepper import (
    LockInitialCondition,
    Model,
    PhysicsConfig,
    RandomSolenoidalInitialCondition,
    TimeConfig,
    initialize,
    step,
)

from util_curl import weak_curl, weak_curl_matrix
from util_rotation import buoyancy_matrix, convection_matrix, rotation_matrix, skew_part
from util_sim1 import sim1_mesh_text
from util_tabulate import gradient_dot, volume_tab, wall_tab

RTOL = 1e-13
G = assemble.GRAVITY

# ---------------------------------------------------------------------------
# oracle kernels: one einsum per integral


def o_field_scalar(dofs, coef, val):
    return np.einsum("qn,cn->cq", val, coef[dofs])


def o_field_scalar_grad(dofs, coef, grad):
    return np.einsum("cqnd,cn->cqd", grad, coef[dofs])


def o_field_vec(dofs, coef, val):
    return np.einsum("cqnd,cn->cqd", val, coef[dofs])


def o_field_div(dofs, coef, div):
    return np.einsum("cqn,cn->cq", div, coef[dofs])


def o_rotation(wdet, wq, val):
    E = np.einsum("cq,cqa,cqb->cab", wdet * wq, val[..., 1], val[..., 0])
    return E - np.transpose(E, (0, 2, 1))


def o_convection(wdet, val, grad, uq, duq):
    adv = np.einsum("cqad,cqd->cqa", grad, uq) + duq[:, :, None] * val[None, :, :]
    return np.einsum("cq,qb,cqa->cab", wdet, val, adv)


def o_matrix(row_dofs, col_dofs, local, shape):
    rows = np.repeat(row_dofs, col_dofs.shape[1], axis=1).ravel()
    cols = np.tile(col_dofs, (1, row_dofs.shape[1])).ravel()
    return sp.csr_matrix((local.ravel(), (rows, cols)), shape=shape)


def o_vector(dofs, local, n):
    out = np.zeros(n)
    np.add.at(out, dofs.ravel(), local.ravel())
    return out


# ---------------------------------------------------------------------------
# oracle operators


def o_mass(space, q):
    tab = volume_tab(space, q)
    if space.family == "RT":
        local = np.einsum("cq,cqad,cqbd->cab", tab.weights, tab.val, tab.val)
    else:
        local = np.einsum("cq,qa,qb->cab", tab.weights, tab.val, tab.val)
    return o_matrix(space.cell_dofs, space.cell_dofs, local, (space.dim, space.dim))


def o_curlcurl(W, q):
    tab = volume_tab(W, q)
    local = np.einsum("cq,cqad,cqbd->cab", tab.weights, tab.grad, tab.grad)
    return o_matrix(W.cell_dofs, W.cell_dofs, local, (W.dim, W.dim))


def o_div(U, Q, q):
    utab, qtab = volume_tab(U, q), volume_tab(Q, q)
    local = np.einsum("cq,qa,cqb->cab", utab.weights, qtab.val, utab.div)
    return o_matrix(Q.cell_dofs, U.cell_dofs, local, (Q.dim, U.dim))


def o_rotation_ops(omega, W, U, q):
    utab, wtab = volume_tab(U, q), volume_tab(W, q)
    wq = o_field_scalar(W.cell_dofs, omega, wtab.val)
    R = o_matrix(U.cell_dofs, U.cell_dofs, o_rotation(utab.weights, wq, utab.val), (U.dim, U.dim))
    gw = o_field_scalar_grad(W.cell_dofs, omega, wtab.grad)
    curl_w = np.stack([gw[..., 1], -gw[..., 0]], axis=-1)
    local = np.einsum("cq,cqd,cqad->ca", utab.weights, curl_w, utab.val)
    return R, o_vector(U.cell_dofs, local, U.dim)


def o_convection_matrix(u, extra, U, W, q):
    utab, wtab = volume_tab(U, q), volume_tab(W, q)
    uq = o_field_vec(U.cell_dofs, u, utab.val) + np.asarray(extra)[None, None, :]
    duq = o_field_div(U.cell_dofs, u, utab.div)
    local = o_convection(wtab.weights, wtab.val, wtab.grad, uq, duq)
    return o_matrix(W.cell_dofs, W.cell_dofs, local, (W.dim, W.dim))


def o_wall_mass(W, tag, b):
    tab = wall_tab(W, tag, b)
    local = np.einsum("eq,eqa,eqb->eab", tab.weights, tab.val, tab.val)
    return o_matrix(tab.dofs, tab.dofs, local, (W.dim, W.dim))


def o_particle(u, u_s, U, W, q, b):
    Gm = o_convection_matrix(u, (G[0] * u_s, G[1] * u_s), U, W, q)
    A = 0.5 * (Gm.T - Gm)
    return A + 0.5 * u_s * (o_wall_mass(W, TAG_TOP, b) + o_wall_mass(W, TAG_BOTTOM, b))


def o_buoyancy(phi, W, U, q):
    utab, wtab = volume_tab(U, q), volume_tab(W, q)
    pq = o_field_scalar(W.cell_dofs, phi, wtab.val)
    F = np.stack([pq * G[0], pq * G[1]], axis=-1)
    local = np.einsum("cq,cqd,cqad->ca", utab.weights, F, utab.val)
    return o_vector(U.cell_dofs, local, U.dim)


def o_baroclinic(phi, W, q):
    wtab = volume_tab(W, q)
    gp = o_field_scalar_grad(W.cell_dofs, phi, wtab.grad)
    fq = gp[..., 0] * G[1] - gp[..., 1] * G[0]
    local = np.einsum("cq,qa->ca", wtab.weights * fq, wtab.val)
    return o_vector(W.cell_dofs, local, W.dim)


def o_curl_rhs(u, U, W, q):
    utab, wtab = volume_tab(U, q), volume_tab(W, q)
    F = o_field_vec(U.cell_dofs, u, utab.val)
    rot = F[..., 0, None] * wtab.grad[..., 1] - F[..., 1, None] * wtab.grad[..., 0]
    local = np.einsum("cq,cqa->ca", wtab.weights, rot)
    return o_vector(W.cell_dofs, local, W.dim)


def o_neumann(omega, W, b):
    out = np.zeros(W.dim)
    for tag in (TAG_TOP, TAG_BOTTOM):
        tab = wall_tab(W, tag, b)
        g = np.einsum("eqnd,en->eqd", tab.grad, omega[tab.dofs])
        gn = np.einsum("eqd,ed->eq", g, tab.normals)
        local = np.einsum("eq,eqa->ea", tab.weights * gn, tab.val)
        out += o_vector(tab.dofs, local, W.dim)
    return out


# ---------------------------------------------------------------------------
# cases


class Case:
    def __init__(self, mesh, N, seed):
        self.N = N
        self.W = make_space(mesh, "CG", N)
        self.U = make_space(mesh, "RT", N)
        self.Q = make_space(mesh, "DG", N - 1)
        # the oracles' own rules, volume and edge, exact for N <= 2; the
        # package derives its rules from each form's degree
        self.q = 2 * N + 2
        self.b = N + 2
        rng = np.random.default_rng(seed)
        self.omega = rng.standard_normal(self.W.dim)
        self.phi = rng.standard_normal(self.W.dim)
        self.u = rng.standard_normal(self.U.dim)


@pytest.fixture(scope="module")
def desk():
    """The desk lock-exchange channel of configs/lock_exchange.cfg at N=2."""
    geom = ChannelGeometry(length=13.0, height=1.0, lock_length=1.0)
    return Case(build_channel_mesh(geom, 50, 5, "crisscross"), 2, seed=1)


@pytest.fixture(scope="module")
def periodic():
    return Case(build_periodic_rect_mesh(2 * np.pi, 2 * np.pi, 8, 8, "left"), 1, seed=2)


@pytest.fixture(scope="module")
def sim1_mesh():
    return read_mesh_text(*sim1_mesh_text())


@pytest.fixture(scope="module")
def sim1_1(sim1_mesh):
    """The sim1 import mesh (tests/util_sim1.py), whose cell areas vary
    threefold, at N=1."""
    return Case(sim1_mesh, 1, seed=3)


@pytest.fixture(scope="module")
def sim1_2(sim1_mesh):
    return Case(sim1_mesh, 2, seed=4)


@pytest.fixture(params=["desk", "periodic", "sim1_1", "sim1_2"])
def case(request):
    return request.getfixturevalue(request.param)


@pytest.fixture(params=["desk", "sim1_1", "sim1_2"])
def channel_case(request):
    """The cases with walls."""
    return request.getfixturevalue(request.param)


def assert_close(got, ref):
    if sp.issparse(ref):
        got, ref = sp.csr_matrix(got), ref.tocsr()
        err = abs(got - ref).max()
        scale = abs(ref).max()
    else:
        err = np.max(np.abs(got - ref))
        scale = np.max(np.abs(ref))
    assert scale > 0
    assert err <= RTOL * scale, f"error {err:.3e} at scale {scale:.3e}"


def test_static_matrices_match_oracle(case):
    for space in (case.W, case.U, case.Q):
        assert_close(assemble.assemble_mass(space), o_mass(space, case.q))
    assert_close(assemble.assemble_curlcurl(case.W), o_curlcurl(case.W, case.q))
    assert_close(assemble.assemble_div(case.U, case.Q), o_div(case.U, case.Q, case.q))


def test_weak_curl_is_mass_times_curl(case):
    """By the exact sequence M Z is the weak curl <curl w_k, u_a>: it
    matches the quadrature oracle (tests/util_curl.py) to 1e-14."""
    ref = weak_curl_matrix(case.U, case.W, case.q)
    assert abs(weak_curl(case.U, case.W) - ref).max() <= 1e-14 * abs(ref).max()


def test_rotation_and_viscous_vector_match_oracle(case):
    """R, as tests/util_rotation.py scatters it and as the step applies it
    per cell, and the viscous vector."""
    R = rotation_matrix(case.omega, case.W, case.U)
    l = weak_curl(case.U, case.W) @ case.omega
    R_ref, l_ref = o_rotation_ops(case.omega, case.W, case.U, case.q)
    assert_close(R, R_ref)
    assert_close(l, l_ref)
    forms = assemble.VelocityForms(case.W, case.U)
    assert_close(forms.apply(omega=case.omega, v=case.u), R_ref @ case.u)


def test_convection_matches_oracle(case):
    """C, skewed cell by cell, is the skew part of the oracle's assembled G."""
    C = convection_matrix(case.u, case.U, case.W)
    G = o_convection_matrix(case.u, (0.0, 0.0), case.U, case.W, case.q)
    assert_close(C, 0.5 * (G.T - G))


def test_particle_operator_matches_oracle(case):
    """The transport operator as the step builds it: skew(G(u)) + drift."""
    u_s = 0.02
    A = convection_matrix(case.u, case.U, case.W)
    bottom = assemble.assemble_wall_mass(case.W, TAG_BOTTOM)
    A = A + assemble.assemble_particle_drift(u_s, case.U, case.W, bottom)
    assert_close(A, o_particle(case.u, u_s, case.U, case.W, case.q, case.b))


def test_sources_match_oracle(case):
    phi, u = case.phi, case.u
    forms = assemble.VelocityForms(case.W, case.U)
    assert_close(forms.apply(phi=phi), o_buoyancy(phi, case.W, case.U, case.q))
    assert_close(forms.apply(a=u), o_mass(case.U, case.q) @ u)
    assert_close(assemble.assemble_baroclinic(case.W) @ phi, o_baroclinic(phi, case.W, case.q))
    assert_close(weak_curl(case.U, case.W).T @ u, o_curl_rhs(u, case.U, case.W, case.q))


def test_gradient_dot_matches_oracle(channel_case):
    """Model.grad_dot_g, -(L y) as e_g = -grad y, is <grad w_i, e_g>.  On
    the periodic box the vector vanishes: grad w_i integrates to zero."""
    c = channel_case
    model = Model(c.W.mesh, c.N, PhysicsConfig(mode="turbidity"), TimeConfig(dt=1e-3, t_end=1.0))
    assert_close(model.grad_dot_g, gradient_dot(c.W, c.q))


def test_vorticity_neumann_matches_oracle(channel_case):
    c = channel_case
    got = assemble.assemble_vorticity_neumann(c.W) @ c.omega
    assert_close(got, o_neumann(c.omega, c.W, c.b))


@pytest.mark.parametrize("tag", WALL_TAGS)
def test_wall_mass_matches_oracle(channel_case, tag):
    """Each wall alone: an edge's length enters only here and in the
    Neumann form."""
    c = channel_case
    assert_close(assemble.assemble_wall_mass(c.W, tag), o_wall_mass(c.W, tag, c.b))


def test_rotation_and_convection_exactly_skew(case):
    """R, C and the rotation in stream-function space on the CG pattern,
    gathered by a model's own system on that whole pattern: transport on
    a channel, vorticity on the torus, where no CG dof is fixed."""
    R = rotation_matrix(case.omega, case.W, case.U)
    C = convection_matrix(case.u, case.U, case.W)
    values = assemble.assemble_rotation(case.omega, case.W, case.U)
    mesh = case.W.mesh
    physics = PhysicsConfig(mode="homogeneous", nu=0.01) if mesh.periodic else PhysicsConfig()
    model = Model(mesh, case.N, physics, TimeConfig(dt=1e-3, t_end=1.0))
    system = model.systems["vorticity" if mesh.periodic else "transport"]
    assert system.static.shape == (case.W.dim, case.W.dim)
    for A in (R, C, skew_part(system, values)):
        assert abs(A).max() > 0
        assert abs(A + A.T).max() == 0.0
        assert (A + A.T).count_nonzero() == 0


# ---------------------------------------------------------------------------
# the velocity forms a Model applies per cell (assemble.VelocityForms),
# against the matrices they stand for, to 1e-14 relative

APPLIED = ["channel-N1", "channel-N2", "torus-N1", "torus-N2"]


@pytest.fixture(scope="module", params=APPLIED)
def applied(request):
    """A Model two steps in, and the states before and after the second
    step: the desk channel (a lock start) at N = 1 and 2, and the 32 x 32
    torus of the benchmark's periodic box (a random solenoidal start)."""
    where, N = request.param.split("-N")
    if where == "channel":
        mesh = build_channel_mesh(ChannelGeometry(length=13.0, height=1.0, lock_length=1.0), 50, 5, "crisscross")
        physics, ic = PhysicsConfig(mode="turbidity"), LockInitialCondition(0.1)
    else:
        mesh = build_periodic_rect_mesh(2 * np.pi, 2 * np.pi, 32, 32, "left")
        physics, ic = PhysicsConfig(mode="homogeneous", nu=0.01), RandomSolenoidalInitialCondition(seed=1)
    model = Model(mesh, int(N), physics, TimeConfig(dt=1e-2, t_end=1.0))
    state, _ = initialize(model, ic)
    prev, _, _ = step(state, model)
    new, _, _ = step(prev, model)
    return model, prev, new


def close(got, ref, scale=None, rtol=1e-14):
    scale = np.max(np.abs(ref)) if scale is None else scale
    assert np.max(np.abs(got - ref)) <= rtol * scale, f"error {np.max(np.abs(got - ref)):.3e} at {scale:.3e}"


def test_applied_mass_and_buoyancy_match_their_oracles(applied):
    """M u against the assembled RT mass and B phi against the quadrature
    oracle o_buoyancy, on random fields."""
    model, _, _ = applied
    rng = np.random.default_rng(6)
    u, phi = rng.standard_normal(model.U.dim), rng.standard_normal(model.W.dim)
    close(model.velocity.apply(a=u), assemble.assemble_mass(model.U) @ u)
    close(model.velocity.apply(phi=phi), o_buoyancy(phi, model.W, model.U, 2 * model.degree + 2))


def test_kinetic_energy_is_the_mass_form(applied):
    """K = u^T M u / 2, summed per cell, is the assembled form's, for the
    state's velocity and a random one."""
    model, _, new = applied
    M = assemble.assemble_mass(model.U)
    for u in (new.u_half, np.random.default_rng(7).standard_normal(model.U.dim)):
        close(model.kinetic_energy(u), 0.5 * float(u @ (M @ u)))


@pytest.mark.parametrize("applied", [name for name in APPLIED if name.startswith("torus")], indirect=True)
def test_torus_corner_is_the_harmonic_mass(applied):
    """The momentum static's corner on the torus is H^T M H."""
    model, _, _ = applied
    H = model.harmonic
    S = model.systems["momentum"].static
    close(S[-2:, -2:].toarray(), H.T @ (assemble.assemble_mass(model.U) @ H))


def test_pressure_residual_is_the_assembled_expression(applied, monkeypatch):
    """The residual that Model.pressure forms in one per-cell pass is
    M ((u - u_old)/dt + nu curl omega) + R (u + u_old)/2 - B phi with M, R
    and B assembled, to 1e-14 of the sum of its terms' magnitudes."""
    model, prev, new = applied
    residuals = []
    apply = model.velocity.apply

    def recorded(**terms):
        residuals.append(apply(**terms))
        return residuals[-1]

    monkeypatch.setattr(model.velocity, "apply", recorded)
    dt = model.time.dt
    model.pressure(new.omega, prev.u_half, new.u_half, dt, phi=new.phi)
    monkeypatch.undo()
    terms = [assemble.assemble_mass(model.U) @ ((new.u_half - prev.u_half) / dt + model.nu * (model.curl @ new.omega)),
             0.5 * (rotation_matrix(new.omega, model.W, model.U) @ (new.u_half + prev.u_half))]
    if new.phi is not None:
        terms.append(-(buoyancy_matrix(model.U, model.W) @ new.phi))
    assert len(residuals) == 1
    close(residuals[0], sum(terms), scale=np.max(sum(np.abs(t) for t in terms)))
