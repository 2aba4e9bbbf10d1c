"""Triangulated channel and periodic rectangle meshes.

The channel occupies [-L_s, L-L_s] x [0, H] so the lock interface sits at
x = 0.  Boundary facets carry tags 1..4: top, right, bottom, left, found
by matching each boundary edge against the walls of the ChannelGeometry.
Periodic meshes identify opposite-boundary entities; cells keep their own
(unwrapped) vertex coordinates so geometry is evaluated without wrap
artifacts.

Edge orientation is global and deterministic: every edge points from its
lower canonical vertex index to the higher one, and cell->edge incidence
signs record whether the cell traverses the edge along or against that
direction.

Every array is built in whole-mesh passes, without a loop over cells or
edges.  A mesh holds no point-location index: the one set-up that needs
to find points in cells (diagnostics.FrontTracker) does its own search.
"""

from dataclasses import dataclass, field

import numpy as np

TAG_TOP = 1
TAG_RIGHT = 2
TAG_BOTTOM = 3
TAG_LEFT = 4
WALL_TAGS = (TAG_TOP, TAG_RIGHT, TAG_BOTTOM, TAG_LEFT)

LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


class MeshError(ValueError):
    pass


@dataclass(frozen=True)
class ChannelGeometry:
    """Nondimensional channel: length, height, and lock length.

    The lock region is [-lock_length, 0] x [0, height]; the full domain
    is [-lock_length, length - lock_length] x [0, height].
    """

    length: float
    height: float = 1.0
    lock_length: float = 1.0

    def __post_init__(self):
        if not (self.length > self.lock_length > 0.0):
            raise MeshError(
                f"need length > lock_length > 0, got length={self.length}, lock_length={self.lock_length}"
            )
        if self.height <= 0.0:
            raise MeshError(f"height must be positive, got {self.height}")

    @property
    def xmin(self):
        return -self.lock_length

    @property
    def xmax(self):
        return self.length - self.lock_length


@dataclass
class MeshStats:
    num_vertices: int
    num_edges: int
    num_cells: int
    h_min: float
    total_area: float


@dataclass
class Mesh:
    vertices: np.ndarray        # (V, 2) canonical coordinates
    cells: np.ndarray           # (C, 3) canonical vertex ids, CCW
    cell_coords: np.ndarray     # (C, 3, 2) geometric (unwrapped) coordinates
    edges: np.ndarray           # (E, 2) canonical vertex ids, lo < hi
    cell_edges: np.ndarray      # (C, 3)
    cell_edge_signs: np.ndarray  # (C, 3), +1 along global orientation
    edge_cells: np.ndarray      # (E, 2) incident cells, -1 if boundary
    edge_local: np.ndarray      # (E, 2) local edge index within incident cell
    edge_tags: np.ndarray       # (E,) 0 interior, else 1..4
    periodic: bool
    bbox: tuple                 # (xmin, xmax, ymin, ymax)
    geometry: ChannelGeometry = None
    render_vertices: np.ndarray = None  # unwrapped vertices for plotting
    render_cells: np.ndarray = None
    render_vertex_map: np.ndarray = None  # render vertex -> canonical vertex
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_cells(self):
        return len(self.cells)

    @property
    def boundary_edges(self):
        return np.flatnonzero(self.edge_tags > 0)

    def wall_edges(self, tag):
        return np.flatnonzero(self.edge_tags == tag)

    def jacobians(self):
        """Per-cell affine map data: (J, detJ, Jinv), cached."""
        if "jac" not in self._cache:
            p0 = self.cell_coords[:, 0, :]
            J = np.stack([self.cell_coords[:, 1, :] - p0, self.cell_coords[:, 2, :] - p0], axis=-1)
            det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
            inv = np.empty_like(J)
            inv[:, 0, 0] = J[:, 1, 1]
            inv[:, 0, 1] = -J[:, 0, 1]
            inv[:, 1, 0] = -J[:, 1, 0]
            inv[:, 1, 1] = J[:, 0, 0]
            inv /= det[:, None, None]
            self._cache["jac"] = (J, det, inv)
        return self._cache["jac"]

    def cell_areas(self):
        return 0.5 * self.jacobians()[1]

    def total_area(self):
        return float(np.sum(self.cell_areas()))

    def edge_lengths(self):
        if "edge_len" not in self._cache:
            lens = np.full(self.num_edges, np.inf)
            for loc, (a, b) in enumerate(LOCAL_EDGES):
                d = self.cell_coords[:, b, :] - self.cell_coords[:, a, :]
                ll = np.hypot(d[:, 0], d[:, 1])
                np.minimum.at(lens, self.cell_edges[:, loc], ll)
            self._cache["edge_len"] = lens
        return self._cache["edge_len"]

    def h_min(self):
        return float(np.min(self.edge_lengths()))


def mesh_stats(mesh):
    return MeshStats(
        num_vertices=mesh.num_vertices,
        num_edges=mesh.num_edges,
        num_cells=mesh.num_cells,
        h_min=mesh.h_min(),
        total_area=mesh.total_area(),
    )


def _quad_triangles(pattern):
    """Triangles of one quad in corner order (sw, se, ne, nw[, centroid])."""
    if pattern == "left":
        return [(0, 1, 2), (0, 2, 3)]
    if pattern == "right":
        return [(0, 1, 3), (1, 2, 3)]
    if pattern == "crisscross":
        return [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    raise MeshError(f"unknown pattern {pattern!r} (expected left, right or crisscross)")


def _build_structured(xmin, xmax, ymin, ymax, nx, ny, pattern, periodic):
    """Shared structured-grid triangulation with optional periodic identification.

    Vertices (and crisscross centroids) are tracked on a doubled integer
    index grid so that periodic edges can be identified by their geometric
    midpoint modulo the period, which stays unambiguous even for nx=ny=2.

    Each cell also gets its vertex ids on the open (unidentified) grid,
    j(nx+1)+i with the centroids after; a periodic mesh renders on that
    grid so plots do not smear across the seam.  On a channel the open ids
    are the canonical ones.
    """
    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    ncx = nx if periodic else nx + 1
    ncy = ny if periodic else ny + 1

    n_grid = ncx * ncy
    tris = np.asarray(_quad_triangles(pattern))
    use_centroid = pattern == "crisscross"

    # corners (sw, se, ne, nw, centroid) of every quad, quads in (j, i) order;
    # only a crisscross triangle uses the centroid
    q = np.arange(nx * ny)
    j, i = np.divmod(q, nx)
    ci = np.stack([i, i + 1, i + 1, i], axis=1)
    cj = np.stack([j, j, j + 1, j + 1], axis=1)
    corner_ids = np.column_stack([(cj % ncy) * ncx + ci % ncx, n_grid + q])
    open_ids = np.column_stack([cj * (nx + 1) + ci, (nx + 1) * (ny + 1) + q])
    corner_xy = np.stack([xs[ci], ys[cj]], axis=-1)
    corner_xy = np.concatenate([corner_xy, 0.5 * (corner_xy[:, :1] + corner_xy[:, 2:3])], axis=1)
    corner_d = np.stack([2 * ci, 2 * cj], axis=-1)  # doubled integer coordinates, for periodic edge identity
    corner_d = np.concatenate([corner_d, (corner_d[:, :1] + corner_d[:, 2:3]) // 2], axis=1)
    cells = corner_ids[:, tris].reshape(-1, 3)
    open_cells = open_ids[:, tris].reshape(-1, 3)
    cell_coords = corner_xy[:, tris].reshape(-1, 3, 2)
    dcoords = corner_d[:, tris].reshape(-1, 3, 2)

    vertices = np.zeros((n_grid + (nx * ny if use_centroid else 0), 2))
    vertices[cells] = cell_coords
    if periodic:
        # canonical representatives live in the fundamental domain
        gx, gy = np.meshgrid(xs[:nx], ys[:ny], indexing="xy")
        vertices[:n_grid, 0] = gx.ravel()
        vertices[:n_grid, 1] = gy.ravel()
        sx, sy = 4 * nx, 4 * ny
        key_of = lambda da, db: ((da[..., 0] + db[..., 0]) % sx) * (sy + 1) + (da[..., 1] + db[..., 1]) % sy
    else:
        big = 4 * (nx + ny) + 8
        key_of = lambda da, db: (da[..., 0] + db[..., 0]) * big + (da[..., 1] + db[..., 1])
    ekeys = np.stack(
        [key_of(dcoords[:, a, :], dcoords[:, b, :]) for a, b in LOCAL_EDGES], axis=1
    )
    mesh = _finalize(vertices, cells, cell_coords, ekeys, periodic)
    if periodic:
        n_open = (nx + 1) * (ny + 1) + (nx * ny if use_centroid else 0)
        mesh.render_vertices = np.zeros((n_open, 2))
        mesh.render_vertices[open_cells] = cell_coords
        mesh.render_vertex_map = np.zeros(n_open, dtype=np.int64)
        mesh.render_vertex_map[open_cells] = cells
        mesh.render_cells = open_cells
    return mesh


def _finalize(vertices, cells, cell_coords, edge_keys, periodic):
    """Build edge arrays from per-cell local-edge keys and orientation signs.
    The render arrays are the canonical ones."""
    _, first, inverse = np.unique(edge_keys.ravel(), return_index=True, return_inverse=True)
    cell_edges = inverse.reshape(-1, 3).astype(np.int64)
    va, vb = cells[:, [0, 1, 2]].ravel(), cells[:, [1, 2, 0]].ravel()  # LOCAL_EDGES, (cell, local) order
    if np.any(va == vb):
        raise MeshError("degenerate edge after periodic identification (need nx, ny >= 2)")
    lo_hi = np.stack([np.minimum(va, vb), np.maximum(va, vb)], axis=1)
    edges = lo_hi[first]  # each edge as its first (cell, local) occurrence sees it
    if np.any(edges[inverse] != lo_hi):
        raise MeshError("inconsistent edge identification")
    if np.bincount(inverse).max() > 2:
        raise MeshError("edge shared by more than two cells")
    slot = np.ones_like(inverse)  # the first occurrence fills slot 0, the other one slot 1
    slot[first] = 0
    edge_cells = np.full((len(first), 2), -1, dtype=np.int64)
    edge_local = np.full((len(first), 2), -1, dtype=np.int64)
    edge_cells[inverse, slot], edge_local[inverse, slot] = np.divmod(np.arange(len(inverse)), 3)

    # positive orientation check
    d1 = cell_coords[:, 1, :] - cell_coords[:, 0, :]
    d2 = cell_coords[:, 2, :] - cell_coords[:, 0, :]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    if np.any(det <= 0):
        raise MeshError("non-positively-oriented cell encountered")

    mesh = Mesh(
        vertices=vertices,
        cells=cells,
        cell_coords=cell_coords,
        edges=edges,
        cell_edges=cell_edges,
        cell_edge_signs=np.where(va < vb, 1, -1).reshape(-1, 3),
        edge_cells=edge_cells,
        edge_local=edge_local,
        edge_tags=np.zeros(len(edges), dtype=np.int64),
        periodic=periodic,
        bbox=(
            float(cell_coords[..., 0].min()), float(cell_coords[..., 0].max()),
            float(cell_coords[..., 1].min()), float(cell_coords[..., 1].max()),
        ),
        render_vertices=vertices,
        render_cells=cells,
        render_vertex_map=np.arange(len(vertices), dtype=np.int64),
    )
    return mesh


def _tag_boundary(mesh, tol=1e-9):
    """Tag each boundary edge with the wall of `mesh.geometry` its midpoint
    lies on, first match of top, right, bottom, left; refuse any other."""
    geom = mesh.geometry
    bnd = np.flatnonzero(mesh.edge_cells[:, 1] < 0)
    c = mesh.edge_cells[bnd, 0]
    a, b = np.asarray(LOCAL_EDGES)[mesh.edge_local[bnd, 0]].T
    mid = 0.5 * (mesh.cell_coords[c, a] + mesh.cell_coords[c, b])
    on_wall = [abs(mid[:, 1] - geom.height) <= tol, abs(mid[:, 0] - geom.xmax) <= tol,
               abs(mid[:, 1]) <= tol, abs(mid[:, 0] - geom.xmin) <= tol]
    tags = np.select(on_wall, WALL_TAGS, 0)
    if not tags.all():
        k = np.argmin(tags)
        raise MeshError(f"boundary edge {bnd[k]} at {mid[k]} does not lie on a channel wall")
    mesh.edge_tags[bnd] = tags


def build_channel_mesh(geom, nx, ny, pattern="left"):
    """Structured triangulation of the channel with tagged walls."""
    if nx < 1 or ny < 1:
        raise MeshError(f"resolution must be at least 1x1, got {nx}x{ny}")
    mesh = _build_structured(geom.xmin, geom.xmax, 0.0, geom.height, nx, ny, pattern, periodic=False)
    mesh.geometry = geom
    _tag_boundary(mesh)
    if np.any((mesh.edge_cells[:, 1] < 0) != (mesh.edge_tags > 0)):
        raise MeshError("boundary tagging does not exhaust the boundary")
    return mesh


def build_periodic_rect_mesh(lx, ly, nx, ny, pattern="left"):
    """Doubly periodic rectangle [0,lx] x [0,ly]; no boundary remains."""
    if nx < 2 or ny < 2:
        raise MeshError(f"periodic meshes need nx, ny >= 2, got {nx}x{ny}")
    if lx <= 0 or ly <= 0:
        raise MeshError("periodic rectangle needs positive extents")
    mesh = _build_structured(0.0, lx, 0.0, ly, nx, ny, pattern, periodic=True)
    if np.any(mesh.edge_cells[:, 1] < 0):
        raise MeshError("periodic identification left boundary edges behind")
    return mesh


def read_mesh_text(text, geom):
    """Parse a triangulation from plain text: 'V E C', V x-y lines, C cell lines.

    The mesh must fill the channel `geom`, [-lock_length, length - lock_length]
    x [0, height]: every boundary edge must lie on one of its walls
    (tolerance 1e-9), which also tags it.  Negatively oriented cells are
    reoriented.
    """
    tokens = text.split()
    if len(tokens) < 3:
        raise MeshError("mesh file too short: expected header 'V E C'")
    try:
        nv, ne, nc = (int(t) for t in tokens[:3])
    except ValueError as exc:
        raise MeshError(f"bad mesh header: {exc}") from None
    need = 3 + 2 * nv + 3 * nc
    if len(tokens) != need:
        raise MeshError(f"mesh file has {len(tokens)} fields, expected {need}")
    vals = np.asarray(tokens[3:3 + 2 * nv], dtype=float).reshape(nv, 2)
    cells = np.asarray(tokens[3 + 2 * nv:], dtype=np.int64).reshape(nc, 3)
    if cells.min() < 0 or cells.max() >= nv:
        raise MeshError("cell vertex index out of range")

    coords = vals[cells]
    d1 = coords[:, 1, :] - coords[:, 0, :]
    d2 = coords[:, 2, :] - coords[:, 0, :]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    flip = det < 0
    if np.any(det == 0):
        raise MeshError("degenerate (zero-area) cell in mesh file")
    cells[flip] = cells[flip][:, [0, 2, 1]]
    coords = vals[cells]

    # edge keys from sorted vertex pairs (no periodic identification on import)
    pairs = np.stack([np.sort(cells[:, [a, b]], axis=1) for a, b in LOCAL_EDGES], axis=1)
    keys = pairs[..., 0] * np.int64(nv) + pairs[..., 1]
    mesh = _finalize(vals, cells, coords, keys, periodic=False)
    if mesh.num_edges != ne:
        raise MeshError(f"mesh header declares {ne} edges but connectivity gives {mesh.num_edges}")
    mesh.geometry = geom
    _tag_boundary(mesh)
    return mesh
