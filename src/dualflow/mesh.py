"""Triangulated channel and periodic rectangle meshes.

The channel occupies [-L_s, L-L_s] x [0, H] so the lock interface sits at
x = 0.  Boundary facets carry tags 1..4: top, right, bottom, left.
Periodic meshes identify opposite-boundary entities; cells keep their own
(unwrapped) vertex coordinates so geometry is evaluated without wrap
artifacts.

Edge orientation is global and deterministic: every edge points from its
lower canonical vertex index to the higher one, and cell->edge incidence
signs record whether the cell traverses the edge along or against that
direction.
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
    periods: tuple = None       # (lx, ly) for periodic meshes
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

    def wrap_point(self, p):
        """Map a point into the fundamental domain of a periodic mesh."""
        if not self.periodic:
            return np.asarray(p, dtype=float)
        lx, ly = self.periods
        x0, _, y0, _ = self.bbox
        p = np.asarray(p, dtype=float)
        return np.array([x0 + (p[0] - x0) % lx, y0 + (p[1] - y0) % ly])

    def locate_cell(self, p, tol=1e-12):
        """Find a cell containing point p (after periodic wrap); -1 if outside."""
        p = self.wrap_point(p)
        grid = self._bin_index()
        nb, x0, y0, dx, dy, bins = grid
        ix = min(max(int((p[0] - x0) / dx), 0), nb - 1)
        iy = min(max(int((p[1] - y0) / dy), 0), nb - 1)
        for c in bins.get((ix, iy), ()):
            if self._bary_inside(c, p, tol):
                return c
        for c in range(self.num_cells):  # fallback, robust for boundary points
            if self._bary_inside(c, p, tol):
                return c
        return -1

    def reference_coords(self, c, p):
        """Reference coordinates of physical point p within cell c."""
        _, _, Jinv = self.jacobians()
        return Jinv[c] @ (np.asarray(p, dtype=float) - self.cell_coords[c, 0, :])

    def _bary_inside(self, c, p, tol):
        r = self.reference_coords(c, p)
        return r[0] >= -tol and r[1] >= -tol and r[0] + r[1] <= 1.0 + tol

    def _bin_index(self):
        if "bins" not in self._cache:
            nb = max(1, int(np.sqrt(self.num_cells)))
            x0, x1, y0, y1 = self.bbox
            dx = (x1 - x0) / nb or 1.0
            dy = (y1 - y0) / nb or 1.0
            bins = {}
            lo = self.cell_coords.min(axis=1)
            hi = self.cell_coords.max(axis=1)
            for c in range(self.num_cells):
                i0 = min(max(int((lo[c, 0] - x0) / dx), 0), nb - 1)
                i1 = min(max(int((hi[c, 0] - x0) / dx), 0), nb - 1)
                j0 = min(max(int((lo[c, 1] - y0) / dy), 0), nb - 1)
                j1 = min(max(int((hi[c, 1] - y0) / dy), 0), nb - 1)
                for i in range(i0, i1 + 1):
                    for j in range(j0, j1 + 1):
                        bins.setdefault((i, j), []).append(c)
            self._cache["bins"] = (nb, x0, y0, dx, dy, bins)
        return self._cache["bins"]


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
    """
    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    ncx = nx if periodic else nx + 1
    ncy = ny if periodic else ny + 1

    def vid(i, j):
        return (j % ncy) * ncx + (i % ncx) if periodic else j * (nx + 1) + i

    n_grid = ncx * ncy
    tris = _quad_triangles(pattern)
    use_centroid = pattern == "crisscross"

    cells = []
    coords = []
    dcoords = []  # doubled integer coordinates, for periodic edge identity
    for j in range(ny):
        for i in range(nx):
            corner_ids = [vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)]
            corner_xy = [
                (xs[i], ys[j]), (xs[i + 1], ys[j]),
                (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1]),
            ]
            corner_d = [
                (2 * i, 2 * j), (2 * (i + 1), 2 * j),
                (2 * (i + 1), 2 * (j + 1)), (2 * i, 2 * (j + 1)),
            ]
            if use_centroid:
                corner_ids.append(n_grid + j * nx + i)
                corner_xy.append((0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])))
                corner_d.append((2 * i + 1, 2 * j + 1))
            for t in tris:
                cells.append([corner_ids[k] for k in t])
                coords.append([corner_xy[k] for k in t])
                dcoords.append([corner_d[k] for k in t])

    nv = n_grid + (nx * ny if use_centroid else 0)
    vertices = np.zeros((nv, 2))
    cells = np.asarray(cells, dtype=np.int64)
    cell_coords = np.asarray(coords, dtype=float)
    for c in range(len(cells)):
        for k in range(3):
            vertices[cells[c, k]] = cell_coords[c, k]
    if periodic:
        # canonical representatives live in the fundamental domain
        gx, gy = np.meshgrid(xs[:nx], ys[:ny], indexing="xy")
        vertices[:n_grid, 0] = gx.ravel()
        vertices[:n_grid, 1] = gy.ravel()

    dcoords = np.asarray(dcoords, dtype=np.int64)  # (C, 3or5->3, 2)
    if periodic:
        sx, sy = 4 * nx, 4 * ny
        key_of = lambda da, db: ((da[..., 0] + db[..., 0]) % sx) * (sy + 1) + (da[..., 1] + db[..., 1]) % sy
    else:
        big = 4 * (nx + ny) + 8
        key_of = lambda da, db: (da[..., 0] + db[..., 0]) * big + (da[..., 1] + db[..., 1])
    ekeys = np.stack(
        [key_of(dcoords[:, a, :], dcoords[:, b, :]) for a, b in LOCAL_EDGES], axis=1
    )
    return _finalize(vertices, cells, cell_coords, ekeys, periodic)


def _finalize(vertices, cells, cell_coords, edge_keys, periodic):
    """Build edge arrays from per-cell local-edge keys and orientation signs."""
    C = len(cells)
    flat = edge_keys.ravel()
    uniq, inverse = np.unique(flat, return_inverse=True)
    cell_edges = inverse.reshape(C, 3).astype(np.int64)
    E = len(uniq)

    edges = np.zeros((E, 2), dtype=np.int64)
    edge_cells = np.full((E, 2), -1, dtype=np.int64)
    edge_local = np.full((E, 2), -1, dtype=np.int64)
    signs = np.zeros((C, 3), dtype=np.int64)
    seen = np.zeros(E, dtype=bool)
    for c in range(C):
        for loc, (a, b) in enumerate(LOCAL_EDGES):
            e = cell_edges[c, loc]
            va, vb = cells[c, a], cells[c, b]
            if va == vb:
                raise MeshError("degenerate edge after periodic identification (need nx, ny >= 2)")
            lo, hi = (va, vb) if va < vb else (vb, va)
            if not seen[e]:
                edges[e] = (lo, hi)
                seen[e] = True
            elif edges[e, 0] != lo or edges[e, 1] != hi:
                raise MeshError("inconsistent edge identification")
            signs[c, loc] = 1 if va == lo else -1
            slot = 0 if edge_cells[e, 0] < 0 else 1
            if slot == 1 and edge_cells[e, 1] >= 0:
                raise MeshError("edge shared by more than two cells")
            edge_cells[e, slot] = c
            edge_local[e, slot] = loc

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
        cell_edge_signs=signs,
        edge_cells=edge_cells,
        edge_local=edge_local,
        edge_tags=np.zeros(E, dtype=np.int64),
        periodic=periodic,
        bbox=(
            float(cell_coords[..., 0].min()), float(cell_coords[..., 0].max()),
            float(cell_coords[..., 1].min()), float(cell_coords[..., 1].max()),
        ),
    )
    return mesh


def _tag_boundary(mesh, tol=1e-9):
    xmin, xmax, ymin, ymax = mesh.bbox
    for e in np.flatnonzero(mesh.edge_cells[:, 1] < 0):
        c, loc = mesh.edge_cells[e, 0], mesh.edge_local[e, 0]
        a, b = LOCAL_EDGES[loc]
        mid = 0.5 * (mesh.cell_coords[c, a, :] + mesh.cell_coords[c, b, :])
        if abs(mid[1] - ymax) <= tol:
            tag = TAG_TOP
        elif abs(mid[0] - xmax) <= tol:
            tag = TAG_RIGHT
        elif abs(mid[1] - ymin) <= tol:
            tag = TAG_BOTTOM
        elif abs(mid[0] - xmin) <= tol:
            tag = TAG_LEFT
        else:
            raise MeshError(f"boundary edge {e} at {mid} does not lie on a channel wall")
        mesh.edge_tags[e] = tag


def build_channel_mesh(geom, nx, ny, pattern="left"):
    """Structured triangulation of the channel with tagged walls."""
    if nx < 1 or ny < 1:
        raise MeshError(f"resolution must be at least 1x1, got {nx}x{ny}")
    mesh = _build_structured(geom.xmin, geom.xmax, 0.0, geom.height, nx, ny, pattern, periodic=False)
    mesh.geometry = geom
    _tag_boundary(mesh)
    if np.any((mesh.edge_cells[:, 1] < 0) != (mesh.edge_tags > 0)):
        raise MeshError("boundary tagging does not exhaust the boundary")
    mesh.render_vertices = mesh.vertices
    mesh.render_cells = mesh.cells
    mesh.render_vertex_map = np.arange(mesh.num_vertices, dtype=np.int64)
    return mesh


def build_periodic_rect_mesh(lx, ly, nx, ny, pattern="left"):
    """Doubly periodic rectangle [0,lx] x [0,ly]; no boundary remains."""
    if nx < 2 or ny < 2:
        raise MeshError(f"periodic meshes need nx, ny >= 2, got {nx}x{ny}")
    if lx <= 0 or ly <= 0:
        raise MeshError("periodic rectangle needs positive extents")
    mesh = _build_structured(0.0, lx, 0.0, ly, nx, ny, pattern, periodic=True)
    mesh.periods = (float(lx), float(ly))
    if np.any(mesh.edge_cells[:, 1] < 0):
        raise MeshError("periodic identification left boundary edges behind")
    # render arrays use the unwrapped grid so plots do not smear across the seam
    _build_render_arrays(mesh, lx, ly, nx, ny, pattern)
    return mesh


def _build_render_arrays(mesh, lx, ly, nx, ny, pattern):
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    nvg = (nx + 1) * (ny + 1)
    use_centroid = pattern == "crisscross"
    verts = np.column_stack([np.tile(xs, ny + 1), np.repeat(ys, nx + 1)])
    vmap = [((j % ny) * nx + (i % nx)) for j in range(ny + 1) for i in range(nx + 1)]
    tris = _quad_triangles(pattern)
    cells = []
    extra = []
    for j in range(ny):
        for i in range(nx):
            ids = [j * (nx + 1) + i, j * (nx + 1) + i + 1,
                   (j + 1) * (nx + 1) + i + 1, (j + 1) * (nx + 1) + i]
            if use_centroid:
                ids.append(nvg + len(extra))
                extra.append((0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])))
                vmap.append(nx * ny + j * nx + i)
            for t in tris:
                cells.append([ids[k] for k in t])
    if extra:
        verts = np.vstack([verts, np.asarray(extra)])
    mesh.render_vertices = verts
    mesh.render_cells = np.asarray(cells, dtype=np.int64)
    mesh.render_vertex_map = np.asarray(vmap, dtype=np.int64)


def read_mesh_text(text, geom):
    """Parse a triangulation from plain text: 'V E C', V x-y lines, C cell lines.

    Boundary tags are inferred geometrically from the channel geometry
    (tolerance 1e-9).  Negatively oriented cells are reoriented.
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
    mesh.render_vertices = mesh.vertices
    mesh.render_cells = mesh.cells
    mesh.render_vertex_map = np.arange(mesh.num_vertices, dtype=np.int64)
    return mesh
