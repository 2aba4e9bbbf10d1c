"""Finite element spaces over a mesh: dof maps, load vectors, interpolation.

The three families form the discrete subcomplex

    CG_N --curl--> RT_N --div--> DG_{N-1}

on which the solver's conservation structure rests: the scalar curl of
any CG function is exactly representable in RT, and divergences of RT
fields land exactly in DG.

Dof layout: each family's dofs per vertex, edge and cell (v, e, c) are
stated once, in `elements.entity_dofs`, and one numbering serves all
three families.  Globally the v dofs of each vertex come first, vertex by
vertex (so the CG vertex dofs are the canonical vertex ids), then the e
dofs of each edge, then the c dofs of each cell; locally the order is the
same.  An RT edge's dofs are its normal-flux Legendre moments w.r.t. the
global edge orientation: only moment 0 is orientation-sensitive, and it
takes the cell's edge sign.  The CG2 edge dof (the midpoint value) is
orientation-free.

Spaces exist for the degrees of `elements.TABULATED`; space_dimension
counts the dofs of any degree.  A space keeps no per-cell tabulation:
`assemble` contracts the reference tensors of `elements` with the mesh's
per-cell geometry, and `interpolate` applies the element's own dof
functionals in every cell, so the RT dofs are defined once, in
`elements.RTElement`.  Spaces assemble and solve nothing: of an L2
projection they give the load vector <f, w_i> alone (`load_vector`).
"""

from dataclasses import dataclass

import numpy as np

from .elements import entity_dofs, get_element
from .mesh import MeshError
from .quadrature import triangle_rule


def space_dimension(family, degree, num_vertices, num_edges, num_cells):
    """Dof count on triangles for any degree, from elements.entity_dofs."""
    v, e, c = entity_dofs(family, degree)
    return v * num_vertices + e * num_edges + c * num_cells


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
    """Create a FunctionSpace of a tabulated degree (UnsupportedElementError otherwise)."""
    v, e, c = entity_dofs(family, degree)
    element = get_element(family, degree)
    V, E, C = mesh.num_vertices, mesh.num_edges, mesh.num_cells
    dim = space_dimension(family, degree, V, E, C)
    # each entity kind: its ids per cell, its dofs per entity, the first dof of its block
    entities = ((mesh.cells, v, 0), (mesh.cell_edges, e, v * V),
                (np.arange(C, dtype=np.int64)[:, None], c, v * V + e * E))
    dofs = np.hstack([(first + n * ids[:, :, None] + np.arange(n)).reshape(C, -1)
                      for ids, n, first in entities])
    signs = np.ones(dofs.shape)
    if family == "RT":
        signs[:, 3 * v + e * np.arange(3)] = mesh.cell_edge_signs  # moment 0 of each edge
    space = FunctionSpace(mesh=mesh, family=family, degree=degree, dim=dim,
                          element=element, cell_dofs=dofs, cell_dof_signs=signs)
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


def _edge_dofs(space, edges):
    """The dofs of the given edges, edge by edge: the edge block
    follows the v dofs of each vertex, and edge e holds e * per_edge + m."""
    v, e, _ = entity_dofs(space.family, space.degree)
    return (v * space.mesh.num_vertices + e * edges[:, None] + np.arange(e)).ravel()


def normal_trace_dofs(space):
    """RT dofs fixing u.n on the whole boundary (strong no-penetration)."""
    if space.family != "RT":
        raise ValueError("normal trace constraints apply to RT spaces")
    return _edge_dofs(space, space.mesh.boundary_edges)


def wall_trace_dofs(space, tags):
    """CG dofs whose removal enforces a zero trace on the given walls."""
    if space.family != "CG":
        raise ValueError("trace constraints apply to CG spaces")
    mesh = space.mesh
    e = np.flatnonzero(np.isin(mesh.edge_tags, tags))
    return np.unique(np.concatenate([mesh.edges[e].ravel(), _edge_dofs(space, e)]))


def free_dofs(space, constrained):
    mask = np.ones(space.dim, dtype=bool)
    mask[constrained] = False
    return np.flatnonzero(mask)


# ---------------------------------------------------------------------------
# Load vectors / interpolation


def _call_scalar(fn, x, y):
    out = fn(x, y)
    return np.broadcast_to(np.asarray(out, dtype=float), x.shape)


def _points(mesh, ref):
    """Physical coordinates (C, n, 2) of the reference points `ref` (n, 2)
    in every cell: p0 + J ref."""
    J = mesh.jacobians()[0]
    return mesh.cell_coords[:, 0, None, :] + ref @ np.swapaxes(J, 1, 2)


def load_vector(space, fn, qdegree):
    """The load vector <f, w_i> of an analytic function on a scalar space,
    by a degree-`qdegree` rule: the right-hand side of its L2 projection."""
    if space.family == "RT":
        raise ValueError("the L2 load of an RT space is not supported; interpolate instead")
    rule = triangle_rule(qdegree)
    x = _points(space.mesh, rule.points)
    f = _call_scalar(fn, x[..., 0], x[..., 1])
    wf = np.multiply.outer(space.mesh.jacobians()[1], rule.weights) * f
    local = np.einsum("cq,qn->cn", wf, space.element.tabulate(rule.points)[0])
    rhs = np.zeros(space.dim)
    np.add.at(rhs, space.cell_dofs.ravel(), local.ravel())
    return rhs


def constant_velocities(U):
    """The RT coefficients of the constant fields e_x and e_y, (U.dim, 2),
    interpolate's to roundoff, from the cell geometry alone: the Piola
    pullback of e_j is the constant det J J^-1 e_j, whose dofs combine
    those of the two constant reference fields."""
    element = U.element
    D0 = element.dofs(np.broadcast_to(np.eye(2)[:, None, :], (2, len(element.dof_points), 2)))
    _, det, Jinv = U.mesh.jacobians()
    local = (det[:, None, None] * np.swapaxes(Jinv, 1, 2)) @ D0  # (C, j, ndof)
    coef = np.zeros((2, U.dim))
    coef[:, U.cell_dofs] = np.swapaxes(local * U.cell_dof_signs[:, None, :], 0, 1)
    return coef.T


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
