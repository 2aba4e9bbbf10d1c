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
reference tensors of `elements` with the mesh's per-cell geometry, and
`interpolate` applies the element's own dof functionals in every cell,
so the RT dofs are defined once, in `elements.RTElement`.
"""

from dataclasses import dataclass

import numpy as np

from .elements import get_element
from .mesh import MeshError
from .quadrature import triangle_rule

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
    return mesh.cell_coords[:, 0, None, :] + ref @ np.swapaxes(J, 1, 2)


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


def interpolate(space, fn):
    """Canonical interpolation of an analytic function: the element's dof
    functionals applied to fn in every cell.  A CG or DG dof is the value
    at a node; an RT dof is RTElement.dofs of the Piola pullback det J
    J^-1 f at the element's dof points, times the RT sign.  A dof shared
    by several cells is written by each; the writes agree for a
    continuous fn (on a torus, a periodic one)."""
    mesh = space.mesh
    element = space.element
    if space.family == "RT":
        x = _points(mesh, element.dof_points)
        F = np.stack(np.broadcast_arrays(*fn(x[..., 0], x[..., 1]), x[..., 0])[:2], axis=-1)
        _, det, Jinv = mesh.jacobians()
        pull = F @ (det[:, None, None] * np.swapaxes(Jinv, 1, 2))
        local = element.dofs(pull) * space.cell_dof_signs
    else:
        x = _points(mesh, element.nodes())
        local = _call_scalar(fn, x[..., 0], x[..., 1])
    coef = np.zeros(space.dim)
    coef[space.cell_dofs] = local
    return Field(space, coef)
