import numpy as np
import pytest

from dualflow.assemble import assemble_div
from dualflow.elements import LOCAL_EDGES
from dualflow.mesh import (
    MAX_CELLS,
    TAG_BOTTOM,
    TAG_LEFT,
    TAG_RIGHT,
    TAG_TOP,
    ChannelGeometry,
    MeshError,
    MeshParameterError,
    build_channel_mesh,
    build_periodic_rect_mesh,
    read_mesh_text,
    check_grid,
)
from dualflow.spaces import make_space


def mesh_text(vertices, cells, num_edges):
    """A triangulation in the plain-text import format."""
    return "\n".join([f"{len(vertices)} {num_edges} {len(cells)}"]
                     + [f"{float(x)!r} {float(y)!r}" for x, y in vertices]
                     + [" ".join(str(v) for v in c) for c in cells])


def assert_incidence_consistent(mesh):
    """edge_cells/edge_local point back through cell_edges, once for every
    (cell, local edge); edges are sorted vertex pairs; signs match."""
    assert np.all(mesh.edge_cells[:, 0] >= 0)
    e, slot = np.nonzero(mesh.edge_cells >= 0)
    assert len(e) == 3 * mesh.num_cells
    c, loc = mesh.edge_cells[e, slot], mesh.edge_local[e, slot]
    assert len(set(zip(c, loc))) == len(c)
    assert np.array_equal(mesh.cell_edges[c, loc], e)
    assert np.all(mesh.edges[:, 0] < mesh.edges[:, 1])
    ends = np.asarray(LOCAL_EDGES)[loc]
    va, vb = mesh.cells[c, ends[:, 0]], mesh.cells[c, ends[:, 1]]
    assert np.array_equal(np.sort(np.stack([va, vb], axis=1), axis=1), mesh.edges[e])
    assert np.array_equal(mesh.cell_edge_signs[c, loc], np.where(va < vb, 1, -1))


def signed_areas(mesh):
    d1 = mesh.cell_coords[:, 1, :] - mesh.cell_coords[:, 0, :]
    d2 = mesh.cell_coords[:, 2, :] - mesh.cell_coords[:, 0, :]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def test_minimal_split_of_square():
    geom = ChannelGeometry(length=1.0, height=1.0, lock_length=0.5)
    mesh = build_channel_mesh(geom, 1, 1, "left")
    assert (mesh.num_vertices, mesh.num_edges, mesh.num_cells) == (4, 5, 2)


@pytest.mark.parametrize("pattern", ["left", "right", "crisscross"])
def test_total_area(pattern):
    geom = ChannelGeometry(length=3.0, height=1.5, lock_length=1.0)
    mesh = build_channel_mesh(geom, 2, 2, pattern)
    assert abs(mesh.total_area() - 3.0 * 1.5) < 1e-12 * 4.5


def test_bottom_wall_tag_count():
    geom = ChannelGeometry(length=13.0, height=1.0, lock_length=1.0)
    mesh = build_channel_mesh(geom, 26, 2, "left")
    bottom = mesh.wall_edges(TAG_BOTTOM)
    assert len(bottom) == 26
    for e in bottom:
        va, vb = mesh.edges[e]
        assert abs(mesh.vertices[va, 1]) < 1e-12 and abs(mesh.vertices[vb, 1]) < 1e-12


@pytest.mark.parametrize("pattern", ["left", "right", "crisscross"])
def test_positive_orientation_and_euler(pattern):
    geom = ChannelGeometry(length=2.0, height=1.0, lock_length=0.7)
    mesh = build_channel_mesh(geom, 4, 3, pattern)
    assert np.all(signed_areas(mesh) > 0)
    assert mesh.num_vertices - mesh.num_edges + mesh.num_cells == 1


def test_boundary_tags_partition_boundary():
    geom = ChannelGeometry(length=2.0, height=1.0, lock_length=0.5)
    mesh = build_channel_mesh(geom, 3, 2, "crisscross")
    boundary = np.flatnonzero(mesh.edge_cells[:, 1] < 0)
    tagged = mesh.boundary_edges
    assert set(boundary) == set(tagged)
    assert set(np.unique(mesh.edge_tags[tagged])) == {TAG_TOP, TAG_RIGHT, TAG_BOTTOM, TAG_LEFT}


def test_refinement_consistency():
    geom = ChannelGeometry(length=2.0, height=1.0, lock_length=0.4)
    coarse = build_channel_mesh(geom, 4, 2, "left")
    fine = build_channel_mesh(geom, 8, 4, "left")
    assert fine.num_cells == 4 * coarse.num_cells
    assert abs(fine.h_min() - 0.5 * coarse.h_min()) < 1e-12


def test_periodic_counts_and_euler():
    mesh = build_periodic_rect_mesh(2 * np.pi, 2 * np.pi, 4, 4, "left")
    assert mesh.num_vertices == 16
    assert mesh.num_cells == 32
    assert mesh.num_vertices - mesh.num_edges + mesh.num_cells == 0
    assert len(mesh.boundary_edges) == 0
    assert np.all(mesh.edge_cells >= 0)


def test_periodic_euler_2x2():
    mesh = build_periodic_rect_mesh(1.0, 1.0, 2, 2, "left")
    assert mesh.num_vertices - mesh.num_edges + mesh.num_cells == 0
    assert np.all(mesh.edge_cells >= 0)
    # every edge has exactly two incident cells with opposite traversal
    for e in range(mesh.num_edges):
        c0, c1 = mesh.edge_cells[e]
        l0, l1 = mesh.edge_local[e]
        assert mesh.cell_edge_signs[c0, l0] * mesh.cell_edge_signs[c1, l1] == -1


@pytest.mark.parametrize("pattern", ["left", "right", "crisscross"])
def test_periodic_area_and_orientation(pattern):
    mesh = build_periodic_rect_mesh(1.0, 1.0, 3, 2, pattern)
    assert abs(mesh.total_area() - 1.0) < 1e-12
    assert np.all(signed_areas(mesh) > 0)


def test_degenerate_inputs_rejected():
    with pytest.raises(MeshError):
        ChannelGeometry(length=1.0, height=1.0, lock_length=1.0)
    with pytest.raises(MeshError):
        ChannelGeometry(length=0.5, height=1.0, lock_length=1.0)
    geom = ChannelGeometry(length=2.0, height=1.0, lock_length=0.5)
    with pytest.raises(MeshError):
        build_channel_mesh(geom, 0, 2)
    with pytest.raises(MeshError):
        build_periodic_rect_mesh(1.0, 1.0, 1, 4)


@pytest.mark.parametrize("lx, ly, nx, ny, pattern, name", [
    (float("nan"), 1.0, 4, 4, "left", "length"),
    (1.0, float("nan"), 4, 4, "left", "height"),
    (1.0, 1.0, 4, 4, "diagonal", "pattern"),
], ids=["nan-length", "nan-height", "pattern"])
def test_periodic_builder_applies_the_grid_rule(lx, ly, nx, ny, pattern, name):
    """build_periodic_rect_mesh(nan, 1.0, 4, 4) built a mesh: `lx <= 0`
    let NaN through."""
    with pytest.raises(MeshError, match=f"^{name} must be"):
        build_periodic_rect_mesh(lx, ly, nx, ny, pattern)


@pytest.mark.parametrize("length, height, lock_length, name", [
    (float("nan"), 1.0, 1.0, "length"), (13.0, float("nan"), 1.0, "height"),
    (13.0, 1.0, float("nan"), "lock_length"),
])
def test_channel_geometry_refuses_nan(length, height, lock_length, name):
    with pytest.raises(MeshError, match=f"^{name} must"):
        ChannelGeometry(length, height, lock_length)


def test_coordinate_frame():
    geom = ChannelGeometry(length=13.0, height=1.0, lock_length=1.0)
    mesh = build_channel_mesh(geom, 13, 1, "left")
    assert abs(mesh.bbox[0] + 1.0) < 1e-12
    assert abs(mesh.bbox[1] - 12.0) < 1e-12


def test_import_sim1_sized_mesh():
    from util_sim1 import sim1_mesh_text

    text, geom = sim1_mesh_text()
    mesh = read_mesh_text(text, geom)
    assert (mesh.num_vertices, mesh.num_edges, mesh.num_cells) == (619, 1734, 1116)
    assert mesh.num_vertices - mesh.num_edges + mesh.num_cells == 1
    assert abs(mesh.total_area() - 13.0) < 1e-12 * 13.0
    assert np.all(signed_areas(mesh) > 0)
    tagged = mesh.edge_tags[mesh.boundary_edges]
    assert len(tagged) == 120
    assert_incidence_consistent(mesh)


def test_import_rejects_bad_header():
    geom = ChannelGeometry(length=1.0, height=1.0, lock_length=0.5)
    with pytest.raises(MeshError):
        read_mesh_text("4 5", geom)
    with pytest.raises(MeshError):
        read_mesh_text("4 99 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3", geom)


def test_import_refuses_negative_header_count():
    """A negative count is refused as a bad header, not left to numpy's
    reshape of the fields it miscounts."""
    with pytest.raises(MeshError, match=r"bad mesh header: counts must be nonnegative, got 'V E C' = 3 3 -1"):
        read_mesh_text("3 3 -1 0 0 1", ChannelGeometry(13.0, 1.0, 1.0))


def test_import_refuses_a_wall_with_no_edge():
    """One triangle listed twice closes every edge: with no boundary edge
    at all it does not fill the channel, and is refused naming the first
    wall it misses rather than left to the model's connectivity check."""
    with pytest.raises(MeshError, match="no boundary edge lies on the top wall"):
        read_mesh_text("3 3 2  -1 0  12 0  -1 1   0 1 2  0 1 2", ChannelGeometry(13.0, 1.0, 1.0))


@pytest.mark.parametrize("vertex, cell, message", [
    ("-1 abc", "0 2 3", "mesh vertex 3 has a bad number 'abc'"),
    ("-1 1", "0 3.5 3", "mesh cell 1 has a bad number '3.5'"),
], ids=["vertex", "cell"])
def test_import_names_a_bad_number(vertex, cell, message):
    geom = ChannelGeometry(length=1.0, height=1.0, lock_length=0.5)
    text = f"4 5 2\n-0.5 0\n0.5 0\n0.5 1\n{vertex}\n0 1 2\n{cell}"
    with pytest.raises(MeshError, match=message):
        read_mesh_text(text, geom)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_import_refuses_non_finite_vertex(value):
    """A non-finite coordinate of an interior vertex, which no wall check
    sees, is refused with the vertex's index, not left to make the area
    nan and the mass matrix singular."""
    geom = ChannelGeometry(length=1.0, height=1.0, lock_length=0.5)
    text = f"5 8 4\n-0.5 0\n0.5 0\n0.5 1\n-0.5 1\n0 {value}\n0 1 4\n1 2 4\n2 3 4\n3 0 4"
    read_mesh_text(text.replace(value, "0.5", 1), geom)
    with pytest.raises(MeshError, match=f"mesh vertex 4 has a non-finite coordinate: 0 {value}"):
        read_mesh_text(text, geom)


def test_import_refuses_edge_in_three_cells():
    geom = ChannelGeometry(length=1.0, height=1.0, lock_length=0.5)
    text = "5 7 3\n-0.5 0\n0.5 0\n0 1\n0 0.5\n0 0.25\n0 1 2\n0 1 3\n0 1 4"
    with pytest.raises(MeshError, match="more than two cells"):
        read_mesh_text(text, geom)


def test_import_must_fill_the_configured_channel():
    """Walls are the ChannelGeometry's, not the mesh's own extent: a mesh
    shifted to x in [0, 13] and stretched to height 2 is refused."""
    geom = ChannelGeometry(length=13.0, height=1.0, lock_length=1.0)
    base = build_channel_mesh(geom, 13, 2, "left")
    read_mesh_text(mesh_text(base.vertices, base.cells, base.num_edges), geom)
    moved = (base.vertices + [1.0, 0.0]) * [1.0, 2.0]
    with pytest.raises(MeshError, match="does not lie on a channel wall"):
        read_mesh_text(mesh_text(moved, base.cells, base.num_edges), geom)


def test_import_refuses_orphan_vertex():
    """Vertex 4 is listed but no cell uses it: refused with its index, not
    left to fail later in the dof map."""
    geom = ChannelGeometry(length=1.0, height=1.0, lock_length=0.5)
    text = "5 5 2\n-0.5 0\n0.5 0\n0.5 1\n-0.5 1\n0 0.5\n0 1 2\n0 2 3"
    with pytest.raises(MeshError, match="vertex 4 belongs to no cell"):
        read_mesh_text(text, geom)


def test_import_refuses_zero_cells():
    geom = ChannelGeometry(length=1.0, height=1.0, lock_length=0.5)
    with pytest.raises(MeshError, match="no cells"):
        read_mesh_text("3 0 0\n-0.5 0\n0.5 0\n0 1", geom)


def test_import_reorients_flipped_cells():
    geom = ChannelGeometry(length=1.0, height=1.0, lock_length=0.5)
    text = "4 5 2\n-0.5 0\n0.5 0\n0.5 1\n-0.5 1\n0 2 1\n0 2 3"
    mesh = read_mesh_text(text, geom)
    assert np.all(signed_areas(mesh) > 0)


@pytest.mark.parametrize("nx, ny", [(2, 2), (5, 3)])
@pytest.mark.parametrize("pattern", ["left", "right", "crisscross"])
def test_render_arrays_match_cells(pattern, nx, ny):
    """Every render cell is a mesh cell: its render vertices map to the
    cell's canonical vertices and sit at the cell's (unwrapped) corners."""
    channel = build_channel_mesh(ChannelGeometry(length=3.0, height=1.0, lock_length=1.0), nx, ny, pattern)
    torus = build_periodic_rect_mesh(2.0, 1.0, nx, ny, pattern)
    imported = read_mesh_text(mesh_text(channel.vertices, channel.cells, channel.num_edges), channel.geometry)
    for mesh in (channel, torus, imported):
        assert np.array_equal(mesh.render_vertex_map[mesh.render_cells], mesh.cells)
        assert np.array_equal(mesh.render_vertices[mesh.render_cells], mesh.cell_coords)
    # the torus renders on the open grid, seam vertices doubled
    centroids = nx * ny if pattern == "crisscross" else 0
    assert len(torus.render_vertices) == (nx + 1) * (ny + 1) + centroids
    assert len(torus.vertices) == nx * ny + centroids


@pytest.mark.parametrize("nx, ny", [(2, 2), (5, 3), (50, 5)])
@pytest.mark.parametrize("pattern", ["left", "right", "crisscross"])
def test_edge_incidence_is_consistent(pattern, nx, ny):
    assert_incidence_consistent(build_channel_mesh(ChannelGeometry(length=3.0, height=1.0, lock_length=1.0), nx, ny, pattern))
    assert_incidence_consistent(build_periodic_rect_mesh(2.0, 1.0, nx, ny, pattern))


def test_grid_past_int32_divergence_indices_refused():
    """The divergence at N = 2 has 3 x 8 entries per cell, written with
    int32 CSR indices: a grid of more than MAX_CELLS cells, which those
    cannot hold, is refused by the grid rule, naming the larger count,
    before anything is built (nx = 2147483648 died in the builder with
    a MemoryError)."""
    small = build_channel_mesh(ChannelGeometry(2.0), 2, 1, "left")
    D = assemble_div(make_space(small, "RT", 2), make_space(small, "DG", 1))
    per_cell = D.nnz // small.num_cells
    assert per_cell == 24 and MAX_CELLS * per_cell <= np.iinfo(np.int32).max < (MAX_CELLS + 1) * per_cell
    check_grid(MAX_CELLS // 4, 1, "crisscross")  # the largest grid passes
    for nx, ny, pattern, name in ((MAX_CELLS // 4 + 1, 1, "crisscross", "nx"), (2147483648, 5, "left", "nx"),
                                  (3, 2147483648, "right", "ny")):
        with pytest.raises(MeshParameterError, match=f"^{name} makes too large a grid"):
            check_grid(nx, ny, pattern)
    with pytest.raises(MeshParameterError, match="^ny makes too large a grid"):
        check_grid(2, MAX_CELLS, "left", torus=(1.0, 1.0))

