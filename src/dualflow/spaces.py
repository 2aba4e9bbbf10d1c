"""Finite element spaces over a mesh: dof maps, projection, interpolation.

The three families form the discrete subcomplex

    CG_N --curl--> RT_N --div--> DG_{N-1}

on which the solver's conservation structure rests: the scalar curl of
any CG function is exactly representable in RT, and divergences of RT
fields land exactly in DG.

Dof layout:
  CG_N : vertex dofs (= canonical vertex ids), then one dof per edge for
         N=2 (midpoint value, orientation-free).
  RT_N : N dofs per edge (normal-flux Legendre moments w.r.t. the global
         edge orientation), then N(N-1) interior moments per cell.  Only
         the moment-0 dof is orientation-sensitive.
  DG_k : (k+1)(k+2)/2 dofs per cell, no sharing.

Spaces exist for N in {1, 2}; space_dimension counts the dofs of any
degree.  A space keeps no per-cell tabulation: `assemble` contracts the
reference tensors of `elements` with the mesh's per-cell geometry.
"""

from dataclasses import dataclass

import numpy as np

from .elements import LOCAL_EDGES, get_element
from .mesh import MeshError
from .quadrature import interval_rule, triangle_rule

FAMILIES = ("CG", "RT", "DG")


def space_dimension(family, degree, num_vertices, num_edges, num_cells):
    """Closed-form dof count on triangles for any degree >= 1 (DG: >= 0)."""
    V, E, C = num_vertices, num_edges, num_cells
    if family == "CG":
        if degree < 1:
            raise ValueError("CG degree must be >= 1")
        return V + (degree - 1) * E + ((degree - 1) * (degree - 2) // 2) * C
    if family == "RT":
        if degree < 1:
            raise ValueError("RT degree must be >= 1")
        return degree * E + degree * (degree - 1) * C
    if family == "DG":
        if degree < 0:
            raise ValueError("DG degree must be >= 0")
        return ((degree + 1) * (degree + 2) // 2) * C
    raise ValueError(f"unknown family {family!r}")


@dataclass
class FunctionSpace:
    mesh: object
    family: str
    degree: int
    dim: int
    element: object
    cell_dofs: np.ndarray       # (C, nloc) int64
    cell_dof_signs: np.ndarray  # (C, nloc) float64


def make_space(mesh, family, degree):
    """Create a FunctionSpace of degree 1 or 2 (UnsupportedElementError otherwise)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    dim = space_dimension(family, degree, mesh.num_vertices, mesh.num_edges, mesh.num_cells)
    element = get_element(family, degree)

    C = mesh.num_cells
    V, E = mesh.num_vertices, mesh.num_edges
    if family == "CG":
        if degree == 1:
            dofs = mesh.cells.copy()
        else:
            dofs = np.hstack([mesh.cells, V + mesh.cell_edges])
        signs = np.ones(dofs.shape)
    elif family == "DG":
        nd = element.ndof
        dofs = nd * np.arange(C, dtype=np.int64)[:, None] + np.arange(nd, dtype=np.int64)[None, :]
        signs = np.ones(dofs.shape)
    else:  # RT
        N = degree
        dofs = np.zeros((C, element.ndof), dtype=np.int64)
        signs = np.ones((C, element.ndof))
        for loc in range(3):
            e = mesh.cell_edges[:, loc]
            s = mesh.cell_edge_signs[:, loc]
            for m in range(N):
                col = element.edge_dofs[loc][m]
                dofs[:, col] = N * e + m
                if element.sign_sensitive[col]:
                    signs[:, col] = s
        for k, col in enumerate(element.interior_dofs):
            dofs[:, col] = N * E + len(element.interior_dofs) * np.arange(C, dtype=np.int64) + k
    space = FunctionSpace(
        mesh=mesh, family=family, degree=degree, dim=dim,
        element=element, cell_dofs=dofs.astype(np.int64), cell_dof_signs=signs.astype(float),
    )
    numbered = int(space.cell_dofs.max()) + 1
    if numbered != dim:
        raise MeshError(f"the {family}{degree} dof map numbers {numbered} dofs but the mesh "
                        f"has {dim}: a vertex or edge belongs to no cell")
    return space


@dataclass
class Field:
    """Coefficient vector bound to a function space."""

    space: FunctionSpace
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.space.dim,):
            raise ValueError(
                f"coefficient length {self.coefficients.shape} does not match space dim {self.space.dim}"
            )


def constant_coefficients(space):
    """Coefficients of the constant function 1 (Lagrange-type scalar spaces)."""
    if space.family == "RT":
        raise ValueError("constants in RT are not a coefficient pattern; interpolate instead")
    return np.ones(space.dim)


# ---------------------------------------------------------------------------
# Constraint helpers


def normal_trace_dofs(space):
    """RT dofs fixing u.n on the whole boundary (strong no-penetration)."""
    if space.family != "RT":
        raise ValueError("normal trace constraints apply to RT spaces")
    N = space.degree
    bedges = space.mesh.boundary_edges
    return np.sort(np.concatenate([N * bedges + m for m in range(N)])) if len(bedges) else np.array([], dtype=np.int64)


def wall_trace_dofs(space, tags):
    """CG dofs whose removal enforces a zero trace on the given walls."""
    if space.family != "CG":
        raise ValueError("trace constraints apply to CG spaces")
    mesh = space.mesh
    e = np.flatnonzero(np.isin(mesh.edge_tags, tags))
    dofs = [mesh.edges[e].ravel()] + ([mesh.num_vertices + e] if space.degree == 2 else [])
    return np.unique(np.concatenate(dofs))


def free_dofs(space, constrained):
    mask = np.ones(space.dim, dtype=bool)
    mask[constrained] = False
    return np.flatnonzero(mask)


# ---------------------------------------------------------------------------
# Projection / interpolation


def _call_scalar(fn, x, y):
    out = fn(x, y)
    return np.broadcast_to(np.asarray(out, dtype=float), x.shape)


def _points(mesh, ref):
    """Physical coordinates (C, n, 2) of the reference points `ref` (n, 2)
    in every cell: p0 + J ref."""
    J = mesh.jacobians()[0]
    return mesh.cell_coords[:, 0, None, :] + np.einsum("cde,qe->cqd", J, ref)


def project(space, fn, qdegree=None):
    """L2 projection of an analytic function onto a scalar space."""
    from .assemble import assemble_mass
    from .linsolve import lu_solve

    if space.family == "RT":
        raise ValueError("L2 projection onto RT is not supported; interpolate instead")
    qdegree = qdegree if qdegree is not None else 2 * max(space.degree, 1) + 2
    rule = triangle_rule(qdegree)
    x = _points(space.mesh, rule.points)
    f = _call_scalar(fn, x[..., 0], x[..., 1])
    wf = np.multiply.outer(space.mesh.jacobians()[1], rule.weights) * f
    local = np.einsum("cq,qn->cn", wf, space.element.tabulate(rule.points)[0])
    rhs = np.zeros(space.dim)
    np.add.at(rhs, space.cell_dofs.ravel(), local.ravel())
    coef, _ = lu_solve(assemble_mass(space, qdegree), rhs)
    return Field(space, coef)


def _oriented_edges(mesh):
    """End points (E, 2) of every edge in its global (lo->hi) orientation,
    in the geometric coordinates of the edge's first cell."""
    c = mesh.edge_cells[:, 0]
    ends = np.asarray(LOCAL_EDGES)[mesh.edge_local[:, 0]]
    a, b = ends[:, 0], ends[:, 1]
    flip = mesh.cells[c, a] > mesh.cells[c, b]  # local direction opposes global
    a, b = np.where(flip, b, a), np.where(flip, a, b)
    return mesh.cell_coords[c, a], mesh.cell_coords[c, b]


def interpolate(space, fn):
    """Canonical (dof-functional) interpolation of an analytic function."""
    mesh = space.mesh
    coef = np.zeros(space.dim)
    if space.family in ("CG", "DG"):
        xq = _points(mesh, space.element.nodes())
        vals = _call_scalar(fn, xq[..., 0], xq[..., 1])
        coef[space.cell_dofs] = vals  # repeated writes agree for continuous fn
        return Field(space, coef)

    N = space.degree
    t1, w1 = interval_rule(2 * N + 3)
    pa, pb = _oriented_edges(mesh)
    tang = pb - pa
    pts = pa[:, None, :] + t1[None, :, None] * tang[:, None, :]
    fx, fy = fn(pts[..., 0], pts[..., 1])
    # length * (u . n) with n = (t_y, -t_x) / length
    flux = np.asarray(fx) * tang[:, 1, None] - np.asarray(fy) * tang[:, 0, None]
    flux = np.broadcast_to(flux, pts.shape[:2])
    for m in range(N):
        leg = np.ones_like(t1) if m == 0 else 2.0 * t1 - 1.0
        coef[m:N * mesh.num_edges:N] = flux @ (w1 * leg)
    if space.element.n_interior:
        rule = triangle_rule(2 * N + 2)
        _, det, Jinv = mesh.jacobians()
        xq = _points(mesh, rule.points)
        F = np.stack(np.broadcast_arrays(*fn(xq[..., 0], xq[..., 1]), xq[..., 0])[:2], axis=-1)
        # reference moments of the pullback: det * Jinv @ f, integrated on
        # T-hat; cell c's interior dofs follow the edge dofs in cell order
        pull = np.einsum("c,ced,cqd->cqe", det, Jinv, F)
        coef[N * mesh.num_edges:] = np.einsum("q,cqe->ce", rule.weights, pull).ravel()
    return Field(space, coef)
