import numpy as np
import pytest

from dualflow.assemble import (
    VelocityForms,
    assemble_baroclinic,
    assemble_curlcurl,
    assemble_div,
    assemble_mass,
    assemble_particle_drift,
    assemble_vorticity_neumann,
    assemble_wall_mass,
)
from dualflow.mesh import (
    TAG_BOTTOM,
    ChannelGeometry,
    build_channel_mesh,
    build_periodic_rect_mesh,
)
from dualflow.quadrature import interval_rule
from dualflow.spaces import (
    constant_coefficients,
    interpolate,
    make_space,
)

from util_curl import discrete_curl, weak_curl
from util_project import project
from util_rotation import convection_matrix, rotation_matrix


@pytest.fixture
def square2():
    geom = ChannelGeometry(length=1.0, height=1.0, lock_length=0.5)
    return build_channel_mesh(geom, 1, 1, "left")


@pytest.fixture
def channel():
    geom = ChannelGeometry(length=2.0, height=1.0, lock_length=0.5)
    return build_channel_mesh(geom, 6, 3, "left")


def spaces_for(mesh, N):
    return (
        make_space(mesh, "CG", N),
        make_space(mesh, "RT", N),
        make_space(mesh, "DG", N - 1),
    )


def test_dg0_mass_is_cell_areas(square2):
    Q = make_space(square2, "DG", 0)
    M = assemble_mass(Q).toarray()
    assert np.allclose(M, np.diag([0.5, 0.5]), atol=1e-14)


def test_cg_mass_entries_sum_to_area(channel):
    W = make_space(channel, "CG", 2)
    M = assemble_mass(W)
    assert abs(M.sum() - channel.total_area()) < 1e-12


@pytest.mark.parametrize("family,deg", [("CG", 2), ("RT", 1), ("DG", 1)])
def test_mass_symmetry(channel, family, deg):
    M = assemble_mass(make_space(channel, family, deg))
    assert abs(M - M.T).max() <= 1e-14 * abs(M).max()


def test_mass_positive_definite(channel):
    for family, deg in [("CG", 1), ("CG", 2), ("RT", 2), ("DG", 1)]:
        M = assemble_mass(make_space(channel, family, deg)).toarray()
        np.linalg.cholesky(M)  # raises if not SPD


def test_div_of_curl_vanishes(channel):
    W, U, Q = spaces_for(channel, 1)
    D = assemble_div(U, Q)
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(W.dim)
    u = discrete_curl(psi, W, U)
    assert np.max(np.abs(D @ u)) < 1e-12


def test_div_pairing_divergence_theorem(square2):
    _, U, Q = spaces_for(square2, 1)
    D = assemble_div(U, Q)
    u = interpolate(U, lambda x, y: (x, y))
    ones = constant_coefficients(Q)
    # <div u, 1> = 2 * area by the divergence theorem
    assert abs(ones @ (D @ u) - 2.0 * 1.0) < 1e-12


def test_curlcurl_kernel_and_symmetry(channel):
    W = make_space(channel, "CG", 1)
    L = assemble_curlcurl(W)
    ones = constant_coefficients(W)
    assert np.max(np.abs(L @ ones)) < 1e-13
    assert abs(L - L.T).max() <= 1e-14 * abs(L).max()


def test_assembled_matrix_cannot_rewrite_its_pattern(square2):
    """Every matrix on a cell pattern shares the pattern's index arrays:
    an in-place operation on one is refused, and the next assembly on the
    pattern is unchanged."""
    W = make_space(square2, "CG", 2)
    L = assemble_curlcurl(W)
    with pytest.raises(ValueError):
        L.eliminate_zeros()
    again = assemble_curlcurl(W)
    assert np.array_equal(again.indices, L.indices) and np.array_equal(again.data, L.data)


def test_curlcurl_linear_energy(square2):
    W = make_space(square2, "CG", 1)
    L = assemble_curlcurl(W)
    om = interpolate(W, lambda x, y: x)
    # curl(x) = (0, -1), so the curl-curl energy equals the area
    assert abs(om @ (L @ om) - 1.0) < 1e-13


def test_rotation_zero_for_zero_vorticity(channel):
    W, U, _ = spaces_for(channel, 1)
    R = rotation_matrix(np.zeros(W.dim), W, U)
    assert abs(R).max() == 0.0
    assert np.max(np.abs(weak_curl(U, W) @ np.zeros(W.dim))) == 0.0


@pytest.mark.parametrize("N", [1, 2])
def test_rotation_skew(channel, N):
    W, U, _ = spaces_for(channel, N)
    rng = np.random.default_rng(N)
    om = rng.standard_normal(W.dim)
    R = rotation_matrix(om, W, U)
    assert abs(R + R.T).max() <= 1e-13 * max(abs(R).max(), 1e-30)
    for _ in range(5):
        u = rng.standard_normal(U.dim)
        assert abs(u @ (R @ u)) <= 1e-12 * (u @ u) * max(abs(R).max(), 1.0)


def test_rotation_constant_fields(square2):
    """With omega=1: <1 x (1,0), (1,0)> = 0 and <1 x (1,0), (0,1)> = 1."""
    W, U, _ = spaces_for(square2, 1)
    om = project(W, lambda x, y: 1.0)
    R = rotation_matrix(om, W, U)
    ex = interpolate(U, lambda x, y: (np.ones_like(x), np.zeros_like(x)))
    ey = interpolate(U, lambda x, y: (np.zeros_like(x), np.ones_like(x)))
    assert abs(ex @ (R @ ex)) < 1e-12
    assert abs(ey @ (R @ ex) - 1.0) < 1e-12


def test_viscous_vector_rigid_rotation(channel):
    """l(omega) = <curl omega, v>; for omega = x, curl omega = (0, -1)."""
    W, U, _ = spaces_for(channel, 1)
    om = interpolate(W, lambda x, y: x)
    l = weak_curl(U, W) @ om
    ey = interpolate(U, lambda x, y: (np.zeros_like(x), np.ones_like(x)))
    assert abs(ey @ l + channel.total_area()) < 1e-12


def test_vorticity_convection_zero_velocity(channel):
    W, U, _ = spaces_for(channel, 1)
    C = convection_matrix(np.zeros(U.dim), U, W)
    assert abs(C).max() == 0.0


@pytest.mark.parametrize("N", [1, 2])
def test_vorticity_convection_skew_part(channel, N):
    W, U, _ = spaces_for(channel, N)
    rng = np.random.default_rng(N + 10)
    u = rng.standard_normal(U.dim)
    C = convection_matrix(u, U, W)
    assert abs(C + C.T).max() == 0.0  # exact by construction
    assert (C + C.T).count_nonzero() == 0
    for _ in range(5):
        om = rng.standard_normal(W.dim)
        assert abs(om @ (C @ om)) <= 1e-12 * (om @ om) * max(abs(C).max(), 1.0)


def solenoidal_velocity(mesh, N, rng):
    """Divergence-free RT field with u.n = 0, as produced by the scheme."""
    from dualflow.spaces import wall_trace_dofs

    W = make_space(mesh, "CG", N)
    U = make_space(mesh, "RT", N)
    coef = rng.standard_normal(W.dim)
    coef[wall_trace_dofs(W, (1, 2, 3, 4))] = 0.0  # psi = 0 on the boundary
    return discrete_curl(coef, W, U)


def test_vorticity_convection_conserves_constants(channel):
    """With u.n = 0 and div u = 0, constants are transported exactly."""
    W, U, _ = spaces_for(channel, 2)
    rng = np.random.default_rng(8)
    u = solenoidal_velocity(channel, 2, rng)
    C = convection_matrix(u, U, W)
    ones = constant_coefficients(W)
    om = rng.standard_normal(W.dim)
    # pairing the transport with the constant test function: pure boundary flux
    assert abs(ones @ (C @ om)) < 1e-12 * np.max(np.abs(om))


def particle_transport(u, u_s, U, W):
    """The particle transport operator as the step builds it."""
    C = convection_matrix(u, U, W)
    return C + assemble_particle_drift(u_s, U, W, assemble_wall_mass(W, TAG_BOTTOM))


def test_particle_convection_zero_inputs(channel):
    W, U, _ = spaces_for(channel, 1)
    A = particle_transport(np.zeros(U.dim), 0.0, U, W)
    assert abs(A).max() == 0.0
    with pytest.raises(ValueError):
        assemble_particle_drift(-0.1, U, W, assemble_wall_mass(W, TAG_BOTTOM))


@pytest.mark.parametrize("N", [1, 2])
def test_particle_mass_identity(channel, N):
    """Pairing the full transport operator with the constant test function
    reduces to the bottom-wall settling outflux (independent quadrature)."""
    W, U, _ = spaces_for(channel, N)
    rng = np.random.default_rng(N + 3)
    u = solenoidal_velocity(channel, N, rng)
    u_s = 0.02
    A = particle_transport(u, u_s, U, W)
    phi = rng.standard_normal(W.dim)
    ones = constant_coefficients(W)
    got = ones @ (A @ phi)

    # independent oracle: bottom-wall quadrature with a different rule
    t, wq = interval_rule(2 * N + 5)
    total = 0.0
    from dualflow.elements import LOCAL_EDGES, REF_VERTICES

    for e in channel.wall_edges(TAG_BOTTOM):
        c, loc = channel.edge_cells[e, 0], channel.edge_local[e, 0]
        a, b = LOCAL_EDGES[loc]
        pa, pb = channel.cell_coords[c, a], channel.cell_coords[c, b]
        length = np.hypot(*(pb - pa))
        ra, rb = REF_VERTICES[a], REF_VERTICES[b]
        rpts = ra[None, :] + t[:, None] * (rb - ra)[None, :]
        vals, _ = W.element.tabulate(rpts)
        phi_e = vals @ phi[W.cell_dofs[c]]
        total += length * np.sum(wq * phi_e)
    assert abs(got - u_s * total) < 1e-12 * max(1.0, abs(got))


def test_buoyancy_examples(square2):
    W, U, _ = spaces_for(square2, 1)
    forms = VelocityForms(W, U)
    assert np.max(np.abs(forms.apply(phi=np.zeros(W.dim)))) == 0.0
    phi1 = project(W, lambda x, y: 1.0)
    b = forms.apply(phi=phi1)
    vdown = interpolate(U, lambda x, y: (np.zeros_like(x), -np.ones_like(x)))
    assert abs(vdown @ b - 1.0) < 1e-12


def test_buoyancy_baroclinic_compatibility():
    """<phi e_g, curl psi> = <grad phi x e_g, psi> on a torus (no boundary).

    Both sides equal -int(psi d(phi)/dx) after integration by parts; this
    ties the momentum buoyancy vector to the vorticity baroclinic source.
    """
    mesh = build_periodic_rect_mesh(1.0, 1.0, 4, 3, "left")
    W = make_space(mesh, "CG", 2)
    U = make_space(mesh, "RT", 2)
    rng = np.random.default_rng(11)
    phi = rng.standard_normal(W.dim)
    psi = rng.standard_normal(W.dim)
    u = discrete_curl(psi, W, U)
    lhs = u @ VelocityForms(W, U).apply(phi=phi)
    rhs = psi @ (assemble_baroclinic(W) @ phi)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_baroclinic_examples(channel):
    W = make_space(channel, "CG", 1)
    ones = constant_coefficients(W)
    Cb = assemble_baroclinic(W)
    c = Cb @ project(W, lambda x, y: x + 0 * y)
    assert abs(ones @ c + channel.total_area()) < 1e-12  # -int d(phi)/dx = -area
    cy = Cb @ project(W, lambda x, y: y)
    assert np.max(np.abs(cy)) < 1e-13
    cc = Cb @ project(W, lambda x, y: 3.7)
    assert np.max(np.abs(cc)) < 1e-13


def test_curl_rhs_examples(channel):
    W, U, _ = spaces_for(channel, 1)
    LcT = weak_curl(U, W).T
    r0 = LcT @ np.zeros(U.dim)
    assert np.max(np.abs(r0)) == 0.0
    # rigid rotation has curl 2: pairing with interior test functions = 2 int(xi)
    u = interpolate(U, lambda x, y: (-y, x))
    r = LcT @ u
    M = assemble_mass(W)
    integrals = M @ constant_coefficients(W)
    from dualflow.spaces import wall_trace_dofs

    boundary = set(wall_trace_dofs(W, (1, 2, 3, 4)))
    interior = [i for i in range(W.dim) if i not in boundary]
    assert len(interior) > 0
    for i in interior:
        assert abs(r[i] - 2.0 * integrals[i]) < 1e-12


def test_curl_rhs_mean_on_torus():
    """omega_tilde = curl_h u has zero mean on a torus (no circulation)."""
    from dualflow.linsolve import lu_solve

    mesh = build_periodic_rect_mesh(1.0, 1.0, 4, 4, "left")
    W = make_space(mesh, "CG", 1)
    U = make_space(mesh, "RT", 1)
    rng = np.random.default_rng(2)
    psi = rng.standard_normal(W.dim)
    u = discrete_curl(psi, W, U)
    r = weak_curl(U, W).T @ u
    M = assemble_mass(W)
    om, _ = lu_solve(M, r)
    ones = constant_coefficients(W)
    assert abs(ones @ (M @ om)) < 1e-12


def test_vorticity_neumann_examples(channel):
    W = make_space(channel, "CG", 2)
    Nn = assemble_vorticity_neumann(W)
    g = Nn @ project(W, lambda x, y: 4.2)
    assert np.max(np.abs(g)) < 1e-12
    gx = Nn @ interpolate(W, lambda x, y: x)
    assert np.max(np.abs(gx)) < 1e-13
    ones = constant_coefficients(W)
    wall_len = channel.bbox[1] - channel.bbox[0]
    # grad(y^2).n is 2 on the top wall (y = 1) and 0 on the bottom wall;
    # grad((1-y)^2).n is 0 on the top wall and 2 on the bottom wall (n = -e_y)
    g_top = Nn @ interpolate(W, lambda x, y: y**2)
    g_bot = Nn @ interpolate(W, lambda x, y: (1.0 - y) ** 2)
    assert abs(ones @ g_top - 2.0 * wall_len) < 1e-12
    assert abs(ones @ g_bot - 2.0 * wall_len) < 1e-12
    # grad(y).n is +1 on the top wall and -1 on the bottom wall
    assert abs(ones @ (Nn @ interpolate(W, lambda x, y: y))) < 1e-12
