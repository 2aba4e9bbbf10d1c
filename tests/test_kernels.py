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
from dualflow.spaces import Field, make_space
from dualflow.stepper import Model, PhysicsConfig, TimeConfig

from util_curl import weak_curl, weak_curl_matrix
from util_rotation import convection_matrix, rotation_matrix, skew_part
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


def o_rotation_ops(omega, U, q):
    W = omega.space
    utab, wtab = volume_tab(U, q), volume_tab(W, q)
    wq = o_field_scalar(W.cell_dofs, omega.coefficients, wtab.val)
    R = o_matrix(U.cell_dofs, U.cell_dofs, o_rotation(utab.weights, wq, utab.val), (U.dim, U.dim))
    gw = o_field_scalar_grad(W.cell_dofs, omega.coefficients, wtab.grad)
    curl_w = np.stack([gw[..., 1], -gw[..., 0]], axis=-1)
    local = np.einsum("cq,cqd,cqad->ca", utab.weights, curl_w, utab.val)
    return R, o_vector(U.cell_dofs, local, U.dim)


def o_convection_matrix(u, extra, W, q):
    U = u.space
    utab, wtab = volume_tab(U, q), volume_tab(W, q)
    uq = o_field_vec(U.cell_dofs, u.coefficients, utab.val) + np.asarray(extra)[None, None, :]
    duq = o_field_div(U.cell_dofs, u.coefficients, utab.div)
    local = o_convection(wtab.weights, wtab.val, wtab.grad, uq, duq)
    return o_matrix(W.cell_dofs, W.cell_dofs, local, (W.dim, W.dim))


def o_wall_mass(W, tag, b):
    tab = wall_tab(W, tag, b)
    local = np.einsum("eq,eqa,eqb->eab", tab.weights, tab.val, tab.val)
    return o_matrix(tab.dofs, tab.dofs, local, (W.dim, W.dim))


def o_particle(u, u_s, W, q, b):
    Gm = o_convection_matrix(u, (G[0] * u_s, G[1] * u_s), W, q)
    A = 0.5 * (Gm.T - Gm)
    return A + 0.5 * u_s * (o_wall_mass(W, TAG_TOP, b) + o_wall_mass(W, TAG_BOTTOM, b))


def o_buoyancy(phi, U, q):
    W = phi.space
    utab, wtab = volume_tab(U, q), volume_tab(W, q)
    pq = o_field_scalar(W.cell_dofs, phi.coefficients, wtab.val)
    F = np.stack([pq * G[0], pq * G[1]], axis=-1)
    local = np.einsum("cq,cqd,cqad->ca", utab.weights, F, utab.val)
    return o_vector(U.cell_dofs, local, U.dim)


def o_baroclinic(phi, W, q):
    P = phi.space
    ptab, wtab = volume_tab(P, q), volume_tab(W, q)
    gp = o_field_scalar_grad(P.cell_dofs, phi.coefficients, ptab.grad)
    fq = gp[..., 0] * G[1] - gp[..., 1] * G[0]
    local = np.einsum("cq,qa->ca", wtab.weights * fq, wtab.val)
    return o_vector(W.cell_dofs, local, W.dim)


def o_curl_rhs(u, W, q):
    U = u.space
    utab, wtab = volume_tab(U, q), volume_tab(W, q)
    F = o_field_vec(U.cell_dofs, u.coefficients, utab.val)
    rot = F[..., 0, None] * wtab.grad[..., 1] - F[..., 1, None] * wtab.grad[..., 0]
    local = np.einsum("cq,cqa->ca", wtab.weights, rot)
    return o_vector(W.cell_dofs, local, W.dim)


def o_neumann(omega, W, b):
    out = np.zeros(W.dim)
    for tag in (TAG_TOP, TAG_BOTTOM):
        tab = wall_tab(W, tag, b)
        g = np.einsum("eqnd,en->eqd", tab.grad, omega.coefficients[tab.dofs])
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
        self.q = 2 * N + 2
        self.b = N + 2
        rng = np.random.default_rng(seed)
        self.omega = Field(self.W, rng.standard_normal(self.W.dim))
        self.phi = Field(self.W, rng.standard_normal(self.W.dim))
        self.u = Field(self.U, rng.standard_normal(self.U.dim))


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
        assert_close(assemble.assemble_mass(space, case.q), o_mass(space, case.q))
    assert_close(assemble.assemble_curlcurl(case.W, case.q), o_curlcurl(case.W, case.q))
    assert_close(assemble.assemble_div(case.U, case.Q, case.q), o_div(case.U, case.Q, case.q))


def test_weak_curl_is_mass_times_curl(case):
    """By the exact sequence M Z is the weak curl <curl w_k, u_a>: it
    matches the quadrature oracle (tests/util_curl.py) to 1e-14."""
    ref = weak_curl_matrix(case.U, case.W, case.q)
    assert abs(weak_curl(case.U, case.W, case.q) - ref).max() <= 1e-14 * abs(ref).max()


def test_rotation_and_viscous_vector_match_oracle(case):
    """R, as tests/util_rotation.py scatters it and as the step applies it
    per cell, and the viscous vector."""
    R = rotation_matrix(case.omega, case.U, case.q)
    l = weak_curl(case.U, case.W, case.q) @ case.omega.coefficients
    R_ref, l_ref = o_rotation_ops(case.omega, case.U, case.q)
    assert_close(R, R_ref)
    assert_close(l, l_ref)
    u = case.u.coefficients
    assert_close(assemble.apply_rotation(case.omega, case.U, case.q, u), R_ref @ u)


def test_convection_matches_oracle(case):
    """C, skewed cell by cell, is the skew part of the oracle's assembled G."""
    C = convection_matrix(case.u, case.W, case.q)
    G = o_convection_matrix(case.u, (0.0, 0.0), case.W, case.q)
    assert_close(C, 0.5 * (G.T - G))


def test_particle_operator_matches_oracle(case):
    """The transport operator as the step builds it: skew(G(u)) + drift."""
    u_s = 0.02
    A = convection_matrix(case.u, case.W, case.q)
    A = A + assemble.assemble_particle_drift(u_s, case.U, case.W, case.q, case.b)
    assert_close(A, o_particle(case.u, u_s, case.W, case.q, case.b))


def test_sources_match_oracle(case):
    phi, u = case.phi.coefficients, case.u.coefficients
    assert_close(assemble.assemble_buoyancy(case.U, case.W, case.q) @ phi, o_buoyancy(case.phi, case.U, case.q))
    assert_close(assemble.assemble_baroclinic(case.W, case.q) @ phi, o_baroclinic(case.phi, case.W, case.q))
    assert_close(weak_curl(case.U, case.W, case.q).T @ u, o_curl_rhs(case.u, case.W, case.q))


def test_gradient_dot_matches_oracle(channel_case):
    """Model.grad_dot_g, -(L y) as e_g = -grad y, is <grad w_i, e_g>.  On
    the periodic box the vector vanishes: grad w_i integrates to zero."""
    c = channel_case
    model = Model(c.W.mesh, c.N, PhysicsConfig(mode="turbidity"), TimeConfig(dt=1e-3, t_end=1.0))
    assert model.qdeg == c.q
    assert_close(model.grad_dot_g, gradient_dot(c.W, c.q))


def test_vorticity_neumann_matches_oracle(channel_case):
    c = channel_case
    got = assemble.assemble_vorticity_neumann(c.W, c.b) @ c.omega.coefficients
    assert_close(got, o_neumann(c.omega, c.W, c.b))


@pytest.mark.parametrize("tag", WALL_TAGS)
def test_wall_mass_matches_oracle(channel_case, tag):
    """Each wall alone: an edge's length enters only here and in the
    Neumann form."""
    c = channel_case
    assert_close(assemble.assemble_wall_mass(c.W, tag, c.b), o_wall_mass(c.W, tag, c.b))


def test_rotation_and_convection_exactly_skew(case):
    """R, C and the rotation in stream-function space on the CG pattern."""
    R = rotation_matrix(case.omega, case.U, case.q)
    C = convection_matrix(case.u, case.W, case.q)
    values = assemble.assemble_rotation(case.omega, case.U, case.q)
    system = assemble.SkewSystem(case.W, np.zeros(len(values)))
    for A in (R, C, skew_part(system, values)):
        assert abs(A).max() > 0
        assert abs(A + A.T).max() == 0.0
        assert (A + A.T).count_nonzero() == 0
