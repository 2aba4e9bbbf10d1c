import types

import numpy as np
import pytest

from dualflow.elements import LOCAL_EDGES, REF_VERTICES, UnsupportedElementError
from dualflow.mesh import (
    ChannelGeometry,
    MeshError,
    build_channel_mesh,
    build_periodic_rect_mesh,
    read_mesh_text,
)
from dualflow.spaces import (
    Field,
    constant_coefficients,
    constant_velocities,
    interpolate,
    make_space,
    normal_trace_dofs,
    space_dimension,
    wall_trace_dofs,
)
from dualflow.quadrature import interval_rule, triangle_rule

from util_curl import discrete_curl
from util_project import project
from util_layout import closed_form_dimension, family_dof_map, hand_normal_trace_dofs, hand_wall_trace_dofs
from util_sim1 import sim1_mesh_text
from util_tabulate import volume_tab


def reference_coords(mesh, cell, point):
    """Reference coordinates of a physical point in one cell."""
    _, _, Jinv = mesh.jacobians()
    return Jinv[cell] @ (np.asarray(point, dtype=float) - mesh.cell_coords[cell, 0])


def evaluate_in_cell(field, cell, point):
    """A field at a physical point, from one given cell's basis."""
    space = field.space
    mesh = space.mesh
    ref = reference_coords(mesh, cell, point)[None, :]
    coefs = field.coefficients[space.cell_dofs[cell]]
    rval, _ = space.element.tabulate(ref)
    if space.family == "RT":
        J, det, _ = mesh.jacobians()
        phys = (J[cell] @ rval[0].T).T / det[cell]
        phys *= space.cell_dof_signs[cell][:, None]
        return phys.T @ coefs
    return float(rval[0] @ coefs)


def evaluate(field, point, tol=1e-10):
    """A field at a physical point, from the first cell that contains it
    (a brute-force search over every cell)."""
    mesh = field.space.mesh
    for c in range(mesh.num_cells):
        ref = reference_coords(mesh, c, point)
        if ref.min() >= -tol and ref.sum() <= 1.0 + tol:
            return evaluate_in_cell(field, c, point)
    raise ValueError(f"point {point} lies outside the mesh")


@pytest.fixture
def square2():
    geom = ChannelGeometry(length=1.0, height=1.0, lock_length=0.5)
    return build_channel_mesh(geom, 1, 1, "left")


@pytest.fixture
def channel():
    geom = ChannelGeometry(length=2.0, height=1.0, lock_length=0.5)
    return build_channel_mesh(geom, 6, 3, "left")


@pytest.fixture
def torus():
    return build_periodic_rect_mesh(1.0, 1.0, 4, 4, "right")


def l2_error(field, fn, qdegree=8):
    space = field.space
    tab = volume_tab(space, qdegree)
    x, y = tab.points[..., 0], tab.points[..., 1]
    if space.family == "RT":
        import util_fields as kernels

        uq = kernels.field_vec(space.cell_dofs, field.coefficients, tab.val)
        fx, fy = fn(x, y)
        err = (uq[..., 0] - fx) ** 2 + (uq[..., 1] - fy) ** 2
    else:
        import util_fields as kernels

        vq = kernels.field_scalar(space.cell_dofs, field.coefficients, tab.val)
        err = (vq - fn(x, y)) ** 2
    return float(np.sqrt(np.sum(tab.weights * err)))


def test_table1_dof_counts():
    assert space_dimension("CG", 4, 619, 1734, 1116) == 9169
    assert space_dimension("RT", 4, 619, 1734, 1116) == 20328
    assert space_dimension("DG", 3, 619, 1734, 1116) == 11160


def test_cg1_dim_two_cell(square2):
    assert make_space(square2, "CG", 1).dim == 4


def test_make_space_refuses_untabulated_degree(channel):
    """Degree 4 is counted, not built."""
    V, E, C = channel.num_vertices, channel.num_edges, channel.num_cells
    assert space_dimension("CG", 4, V, E, C) == V + 3 * E + 3 * C
    for family, degree in (("CG", 4), ("RT", 3), ("DG", 2)):
        with pytest.raises(UnsupportedElementError):
            make_space(channel, family, degree)


def test_make_space_refuses_vertex_outside_every_cell(channel):
    channel.vertices = np.vstack([channel.vertices, [[0.0, 0.5]]])
    with pytest.raises(MeshError, match="CG1 dof map numbers .* belongs to no cell"):
        make_space(channel, "CG", 1)


@pytest.mark.parametrize("family,degree", [("CG", 1), ("CG", 2), ("RT", 1), ("RT", 2), ("DG", 0), ("DG", 1)])
def test_dof_map_consistency(channel, family, degree):
    sp = make_space(channel, family, degree)
    assert sp.cell_dofs.min() == 0
    assert sp.cell_dofs.max() == sp.dim - 1
    assert sp.dim == space_dimension(family, degree, channel.num_vertices, channel.num_edges, channel.num_cells)


PAIRS = [("CG", 1), ("CG", 2), ("RT", 1), ("RT", 2), ("DG", 0), ("DG", 1)]


def layout_mesh(kind):
    """channel-<nx>x<ny>-<pattern>, torus-<n>-<pattern> or sim1."""
    if kind == "sim1":
        return read_mesh_text(*sim1_mesh_text())
    shape, pattern = kind.split("-")[1:]
    if kind.startswith("channel"):
        nx, ny = map(int, shape.split("x"))
        return build_channel_mesh(ChannelGeometry(length=2.0, height=1.0, lock_length=0.5), nx, ny, pattern)
    return build_periodic_rect_mesh(1.0, 1.0, int(shape), int(shape), pattern)


@pytest.mark.parametrize("kind", [f"{mesh}-{pattern}" for mesh in ("channel-6x3", "channel-1x1", "torus-2", "torus-32")
                                  for pattern in ("left", "right", "crisscross")] + ["sim1"])
def test_dof_map_equals_the_per_family_numbering(kind):
    """The one entity numbering of make_space gives every family's old
    per-family dof map and signs, byte for byte, dtype included."""
    mesh = layout_mesh(kind)
    for family, degree in PAIRS:
        space = make_space(mesh, family, degree)
        for new, old in zip((space.cell_dofs, space.cell_dof_signs), family_dof_map(mesh, family, degree)):
            assert new.dtype == old.dtype and new.shape == old.shape, (family, degree)
            assert new.tobytes() == old.tobytes(), (family, degree)


def test_space_dimension_equals_the_closed_forms():
    """entity_dofs counts what the old closed forms counted, to degree 5."""
    counts = (619, 1734, 1116)
    for family, lowest in (("CG", 1), ("RT", 1), ("DG", 0)):
        for degree in range(lowest, 6):
            new = space_dimension(family, degree, *counts)
            old = closed_form_dimension(family, degree, *counts)
            assert type(new) is type(old) and new == old, (family, degree)


def test_project_constant_cg1(channel):
    f = project(make_space(channel, "CG", 1), lambda x, y: 1.0)
    assert np.allclose(f.coefficients, 1.0, atol=1e-12)


def test_project_linear_cg1_gives_vertex_coordinates(channel):
    f = project(make_space(channel, "CG", 1), lambda x, y: x)
    assert np.allclose(f.coefficients, channel.vertices[:, 0], atol=1e-12)


def project_rt(U, fn, qdegree=8):
    """L2 projection of an analytic vector function onto an RT space, by
    per-cell quadrature: the package projects scalars alone."""
    from dualflow.assemble import assemble_mass
    from dualflow.linsolve import lu_solve

    tab = volume_tab(U, qdegree)
    fx, fy = fn(tab.points[..., 0], tab.points[..., 1])
    F = np.stack(np.broadcast_arrays(fx, fy), axis=-1)
    local = np.einsum("cq,cqnd,cqd->cn", tab.weights, tab.val, F)
    rhs = np.zeros(U.dim)
    np.add.at(rhs, U.cell_dofs.ravel(), local.ravel())
    return Field(U, lu_solve(assemble_mass(U, qdegree), rhs)[0])


def test_project_reproduces_rt1_member(channel):
    # (x, y) = 0 + 1*(x,y) lies in the local RT_1 space on every cell
    f = project_rt(make_space(channel, "RT", 1), lambda x, y: (x, y))
    assert l2_error(f, lambda x, y: (x, y)) < 1e-12


def test_project_reproduces_rt2_member(channel):
    # rigid rotation is linear, hence inside RT_2
    f = project_rt(make_space(channel, "RT", 2), lambda x, y: (y, -x))
    assert l2_error(f, lambda x, y: (y, -x)) < 1e-12


def test_project_refuses_rt(channel):
    with pytest.raises(ValueError, match="interpolate instead"):
        project(make_space(channel, "RT", 1), lambda x, y: (x, y))


@pytest.mark.parametrize("degree", [1, 2])
def test_interpolate_reproduces_rt_members(channel, degree):
    U = make_space(channel, "RT", degree)
    f = interpolate(U, lambda x, y: (x, y))
    assert l2_error(f, lambda x, y: (x, y)) < 1e-12


def edge_loop_interpolate(U, fn):
    """RT interpolation through the physical geometry, one pass over the
    edges and one over the interiors: the oracle for the reference dof
    functionals.  Each edge's flux moments are taken in its global (lo ->
    hi) orientation on its first cell, at the degree-2N+3 interval rule,
    and the interior moments are the reference moments of the pullback det
    J J^-1 f at the degree-2N+2 triangle rule."""
    mesh = U.mesh
    N = U.degree
    coef = np.zeros(U.dim)
    c = mesh.edge_cells[:, 0]
    a, b = np.asarray(LOCAL_EDGES)[mesh.edge_local[:, 0]].T
    flip = mesh.cells[c, a] > mesh.cells[c, b]
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    pa, pb = mesh.cell_coords[c, a], mesh.cell_coords[c, b]
    tang = pb - pa
    t1, w1 = interval_rule(2 * N + 3)
    pts = pa[:, None, :] + t1[None, :, None] * tang[:, None, :]
    fx, fy = fn(pts[..., 0], pts[..., 1])
    # length (u . n) with n = (t_y, -t_x) / length
    flux = np.broadcast_to(np.asarray(fx) * tang[:, 1, None] - np.asarray(fy) * tang[:, 0, None], pts.shape[:2])
    for m in range(N):
        leg = np.ones_like(t1) if m == 0 else 2.0 * t1 - 1.0
        coef[m:N * mesh.num_edges:N] = flux @ (w1 * leg)
    if U.element.n_interior:
        rule = triangle_rule(2 * N + 2)
        J, det, Jinv = mesh.jacobians()
        xq = mesh.cell_coords[:, 0, None, :] + np.einsum("cde,qe->cqd", J, rule.points)
        F = np.stack(np.broadcast_arrays(*fn(xq[..., 0], xq[..., 1]), xq[..., 0])[:2], axis=-1)
        pull = np.einsum("c,ced,cqd->cqe", det, Jinv, F)
        coef[N * mesh.num_edges:] = np.einsum("q,cqe->ce", rule.weights, pull).ravel()
    return coef


INTERPOLANDS = {
    "constant": lambda x, y: (0.7, -1.3),
    "linear": lambda x, y: (x - 2.0 * y + 1.0, 3.0 * x + y),
    # periodic on the unit torus
    "taylor_green": lambda x, y: (np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y),
                                  -np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)),
}


@pytest.mark.parametrize("mesh_kind,field", [
    (mesh_kind, field) for mesh_kind in ("channel", "desk", "sim1") for field in INTERPOLANDS
] + [("torus", "taylor_green")])
@pytest.mark.parametrize("degree", [1, 2])
def test_interpolate_rt_matches_edge_loop(mesh_kind, field, degree, channel, torus):
    """The element's dof functionals, applied per cell, give the physical
    edge and interior moments.  On the torus a seam edge is written from
    either side, so only a periodic field has an interpolant there."""
    mesh = {
        "channel": lambda: channel,
        "desk": lambda: build_channel_mesh(ChannelGeometry(13.0, 1.0, 1.0), 50, 5, "crisscross"),
        "sim1": lambda: read_mesh_text(*sim1_mesh_text()),
        "torus": lambda: torus,
    }[mesh_kind]()
    U = make_space(mesh, "RT", degree)
    expected = edge_loop_interpolate(U, INTERPOLANDS[field])
    got = interpolate(U, INTERPOLANDS[field]).coefficients
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_evaluate_constant_field(channel):
    f = project(make_space(channel, "CG", 2), lambda x, y: 2.5)
    for p in [(-0.3, 0.4), (1.2, 0.9), (0.0, 0.0)]:
        assert abs(evaluate(f, p) - 2.5) < 1e-11


def test_evaluate_vertex_consistency(channel):
    W = make_space(channel, "CG", 1)
    rng = np.random.default_rng(5)
    f = Field(W, rng.standard_normal(W.dim))
    # a vertex shared by several cells gives the same value from each
    v = channel.cells[4, 0]
    p = channel.vertices[v]
    cells = [c for c in range(channel.num_cells) if v in channel.cells[c]]
    vals = [evaluate_in_cell(f, c, p) for c in cells]
    assert np.ptp(vals) < 1e-12


@pytest.mark.parametrize("degree", [1, 2])
def test_rt_normal_continuity_tangential_jump(channel, degree):
    U = make_space(channel, "RT", degree)
    rng = np.random.default_rng(42)
    f = Field(U, rng.standard_normal(U.dim))
    interior = np.flatnonzero(channel.edge_cells[:, 1] >= 0)
    jumps_t = []
    for e in interior[:12]:
        c0, c1 = channel.edge_cells[e]
        va, vb = channel.edges[e]
        mid = 0.5 * (channel.vertices[va] + channel.vertices[vb])
        tang = channel.vertices[vb] - channel.vertices[va]
        tang = tang / np.hypot(*tang)
        nrm = np.array([tang[1], -tang[0]])
        u0 = evaluate_in_cell(f, c0, mid)
        u1 = evaluate_in_cell(f, c1, mid)
        assert abs((u0 - u1) @ nrm) < 1e-12
        jumps_t.append(abs((u0 - u1) @ tang))
    assert max(jumps_t) > 1e-3  # tangential component genuinely jumps


@pytest.mark.parametrize("mesh_kind", ["channel", "torus"])
@pytest.mark.parametrize("degree", [1, 2])
def test_de_rham_curl_exactness(mesh_kind, degree, channel, torus):
    """curl(CG_N) lies exactly inside RT_N and is exactly divergence-free."""
    from dualflow.assemble import assemble_div

    mesh = channel if mesh_kind == "channel" else torus
    W = make_space(mesh, "CG", degree)
    U = make_space(mesh, "RT", degree)
    Q = make_space(mesh, "DG", degree - 1)
    D = assemble_div(U, Q, 2 * degree + 2)
    rng = np.random.default_rng(degree)
    for _ in range(5):
        psi = Field(W, rng.standard_normal(W.dim))
        u = discrete_curl(psi, U)
        assert np.max(np.abs(D @ u.coefficients)) < 1e-12


def edge_loop_curl(psi, U):
    """The discrete curl one edge at a time, through the physical geometry:
    the oracle for the metric-free curl matrix."""
    mesh = U.mesh
    N = U.degree
    coef = np.zeros(U.dim)
    t1, w1 = interval_rule(2 * N + 1)
    _, _, Jinv = mesh.jacobians()
    for e in range(mesh.num_edges):
        c, loc = mesh.edge_cells[e, 0], mesh.edge_local[e, 0]
        a, b = LOCAL_EDGES[loc]
        if mesh.cells[c, a] > mesh.cells[c, b]:  # global orientation is lo -> hi
            a, b = b, a
        pa, pb = mesh.cell_coords[c, a], mesh.cell_coords[c, b]
        ra, rb = REF_VERTICES[a], REF_VERTICES[b]
        tang = pb - pa
        length = float(np.hypot(*tang))
        normal = np.array([tang[1], -tang[0]]) / length
        _, rgrad = psi.space.element.tabulate(ra[None, :] + t1[:, None] * (rb - ra)[None, :])
        grad = np.einsum("qne,ed->qnd", rgrad, Jinv[c])
        gpsi = np.einsum("qnd,n->qd", grad, psi.coefficients[psi.space.cell_dofs[c]])
        un = gpsi[:, 1] * normal[0] - gpsi[:, 0] * normal[1]
        for m in range(N):
            leg = np.ones_like(t1) if m == 0 else 2.0 * t1 - 1.0
            coef[N * e + m] = length * np.sum(w1 * un * leg)
    if U.element.n_interior:
        qdeg = 2 * N + 2
        wtab = volume_tab(psi.space, qdeg)
        rule = triangle_rule(qdeg)
        J, det, Jinv = mesh.jacobians()
        gpsi = np.einsum("cqnd,cn->cqd", wtab.grad, psi.coefficients[psi.space.cell_dofs])
        F = np.stack([gpsi[..., 1], -gpsi[..., 0]], axis=-1)
        pull = np.einsum("c,ced,cqd->cqe", det, Jinv, F)
        moments = np.einsum("q,cqe->ce", rule.weights, pull)
        ni = U.element.n_interior
        for k in range(ni):
            coef[N * mesh.num_edges + ni * np.arange(mesh.num_cells) + k] = moments[:, k]
    return coef


@pytest.mark.parametrize("mesh_kind", ["channel", "torus", "desk"])
@pytest.mark.parametrize("degree", [1, 2])
def test_curl_matrix_matches_edge_loop(mesh_kind, degree, channel, torus):
    if mesh_kind == "desk":
        mesh = build_channel_mesh(ChannelGeometry(13.0, 1.0, 1.0), 50, 5, "crisscross")
    else:
        mesh = channel if mesh_kind == "channel" else torus
    W = make_space(mesh, "CG", degree)
    U = make_space(mesh, "RT", degree)
    rng = np.random.default_rng(degree)
    psi = Field(W, rng.standard_normal(W.dim))
    expected = edge_loop_curl(psi, U)
    assert np.max(np.abs(discrete_curl(psi, U).coefficients - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("degree", [1, 2])
def test_div_rt_lands_in_dg(channel, degree):
    """Projecting div(u_h) into DG recovers it pointwise (lossless)."""
    import util_fields as kernels
    from dualflow.assemble import assemble_mass

    U = make_space(channel, "RT", degree)
    Q = make_space(channel, "DG", degree - 1)
    qdeg = 2 * degree + 2
    rng = np.random.default_rng(3)
    u = Field(U, rng.standard_normal(U.dim))
    utab = volume_tab(U, qdeg)
    duq = kernels.field_div(U.cell_dofs, u.coefficients, utab.div)
    # project into DG via mass solve
    from dualflow.linsolve import lu_solve

    qtab = volume_tab(Q, qdeg)
    rhs = np.zeros(Q.dim)
    local = np.einsum("cq,qn->cn", utab.weights * duq, qtab.val)
    np.add.at(rhs, Q.cell_dofs.ravel(), local.ravel())
    M = assemble_mass(Q, qdeg)
    coef, _ = lu_solve(M, rhs)
    dq = kernels.field_scalar(Q.cell_dofs, coef, qtab.val)
    assert np.max(np.abs(dq - duq)) < 1e-12 * max(1.0, np.max(np.abs(duq)))


def test_piola_divergence_theorem(channel):
    """Cell integral of div(basis) equals the signed sum of edge fluxes."""
    U = make_space(channel, "RT", 1)
    tab = volume_tab(U, 4)
    areas = channel.cell_areas()
    for c in [0, 3, 7]:
        for a in range(3):
            cellint = float(np.sum(tab.weights[c] * tab.div[c, :, a]))
            assert abs(cellint - U.cell_dof_signs[c, a] * 1.0) < 1e-12
    # pointwise: divergence of each edge function is constant +-1/area
    for c in range(channel.num_cells):
        for a in range(3):
            vals = tab.div[c, :, a]
            assert np.ptp(vals) < 1e-12
            assert abs(abs(vals[0]) - 1.0 / areas[c]) < 1e-10


def test_constraint_helpers(channel):
    U = make_space(channel, "RT", 2)
    nt = normal_trace_dofs(U)
    assert len(nt) == 2 * len(channel.boundary_edges)
    W = make_space(channel, "CG", 2)
    lateral = wall_trace_dofs(W, (2, 4))
    # 4 vertices and 3 edges per lateral wall on a 6x3 grid
    assert len(lateral) == 2 * (4 + 3)
    xs = channel.vertices[[d for d in lateral if d < channel.num_vertices], 0]
    assert np.all((np.abs(xs - channel.bbox[0]) < 1e-9) | (np.abs(xs - channel.bbox[1]) < 1e-9))


@pytest.mark.parametrize("kind", ["desk", "box"])
def test_trace_dofs_equal_the_hand_offsets(kind):
    """The boundary dofs, derived from entity_dofs, equal the old hand
    offsets byte for byte on the lock-exchange desk mesh (50x5
    crisscross) and the periodic 8x8 box, for N = 1 and 2."""
    if kind == "desk":
        mesh = build_channel_mesh(ChannelGeometry(length=13.0, height=1.0, lock_length=1.0), 50, 5, "crisscross")
    else:
        mesh = build_periodic_rect_mesh(2 * np.pi, 2 * np.pi, 8, 8, "left")
    for N in (1, 2):
        U = make_space(mesh, "RT", N)
        W = make_space(mesh, "CG", N)
        pairs = [(normal_trace_dofs(U), hand_normal_trace_dofs(U))]
        pairs += [(wall_trace_dofs(W, tags), hand_wall_trace_dofs(W, tags))
                  for tags in ((2, 4), (1, 2, 3, 4))]
        for new, old in pairs:
            assert new.dtype == old.dtype and new.tobytes() == old.tobytes(), N
        assert (len(pairs[0][0]) > 0) == (kind == "desk")


def test_wall_trace_dofs_take_every_edge_dof():
    """A CG3 edge has two dofs: the trace holds both, numbered after the
    vertices as make_space numbers them, v + 2 e + m."""
    mesh = build_channel_mesh(ChannelGeometry(length=2.0, height=1.0, lock_length=0.5), 6, 3, "left")
    W3 = types.SimpleNamespace(mesh=mesh, family="CG", degree=3)
    e = mesh.wall_edges(2)
    expected = np.concatenate([mesh.edges[e].ravel(), mesh.num_vertices + 2 * e, mesh.num_vertices + 2 * e + 1])
    assert np.array_equal(wall_trace_dofs(W3, (2,)), np.unique(expected))


def test_constant_representable_on_periodic(torus):
    W = make_space(torus, "CG", 2)
    ones = constant_coefficients(W)
    f = Field(W, ones)
    for p in [(0.1, 0.2), (0.99, 0.99), (0.5, 0.0)]:
        assert abs(evaluate(f, p) - 1.0) < 1e-12


@pytest.mark.parametrize("mesh", ["left", "crisscross", "desk"])
@pytest.mark.parametrize("degree", [1, 2])
def test_constant_velocities_are_the_interpolated_constants(mesh, degree):
    """The RT coefficients of e_x and e_y from the cell geometry alone are
    interpolate's to 1e-15 relative on a 32x32 torus of each pattern and
    on the desk lock-exchange channel, where the drift takes e_g from them."""
    if mesh == "desk":
        mesh = build_channel_mesh(ChannelGeometry(length=13.0, height=1.0, lock_length=1.0), 50, 5,
                                  "crisscross")
    else:
        mesh = build_periodic_rect_mesh(2 * np.pi, 2 * np.pi, 32, 32, mesh)
    U = make_space(mesh, "RT", degree)
    H = constant_velocities(U)
    for j, e in enumerate(((1.0, 0.0), (0.0, 1.0))):
        ref = interpolate(U, lambda x, y: e).coefficients
        assert np.abs(H[:, j] - ref).max() <= 1e-15 * np.abs(ref).max()
