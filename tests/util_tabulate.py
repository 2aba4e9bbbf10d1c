"""Per-cell Piola tabulation: the test oracle of the reference tensors.

The package builds every form as per-cell geometry contracted with a
reference tensor (elements.form_tensor, elements.skew_tensors).  The
functions here tabulate each cell's physical basis at quadrature points
instead, as the package once did, straight from the Piola maps: a
scalar basis w and its gradient J^-T grad w, an RT basis J r / det J
and its divergence div r / det J, RT signs folded in, and the weight
det J.  Oracles integrate these with einsum.
"""

from dataclasses import dataclass

import numpy as np

from dualflow.assemble import GRAVITY
from dualflow.elements import LOCAL_EDGES, REF_VERTICES
from dualflow.quadrature import interval_rule, triangle_rule


@dataclass
class VolumeTab:
    """Per-cell tabulation at a shared volume quadrature rule."""

    weights: np.ndarray      # (C, nq) quadrature weight * detJ
    points: np.ndarray       # (C, nq, 2) physical coordinates
    val: np.ndarray          # scalar: (nq, n); RT: (C, nq, n, 2), signs folded in
    grad: np.ndarray = None  # scalar: (C, nq, n, 2)
    div: np.ndarray = None   # RT: (C, nq, n), signs folded in


@dataclass
class EdgeTab:
    """One-sided tabulation on the edges of one boundary wall."""

    edges: np.ndarray        # (ne,)
    cells: np.ndarray        # (ne,)
    dofs: np.ndarray         # (ne, nloc) owner-cell dofs
    weights: np.ndarray      # (ne, nqe) 1D weight * edge length
    points: np.ndarray       # (ne, nqe, 2)
    normals: np.ndarray      # (ne, 2) outward
    val: np.ndarray          # (ne, nqe, nloc)
    grad: np.ndarray         # (ne, nqe, nloc, 2)


def volume_tab(space, qdegree):
    """Physical tabulation of `space` at the degree-`qdegree` triangle rule."""
    points, weights = triangle_rule(qdegree)
    J, det, Jinv = space.mesh.jacobians()
    wdet = np.multiply.outer(det, weights)
    p0 = space.mesh.cell_coords[:, 0, :]
    xq = p0[:, None, :] + np.einsum("cde,qe->cqd", J, points)
    if space.family == "RT":
        rval, rdiv = space.element.tabulate(points)
        val = np.einsum("cde,qne->cqnd", J, rval) / det[:, None, None, None]
        div = rdiv[None, :, :] / det[:, None, None]
        val *= space.cell_dof_signs[:, None, :, None]
        div = div * space.cell_dof_signs[:, None, :]
        return VolumeTab(weights=wdet, points=xq, val=val, div=div)
    rval, rgrad = space.element.tabulate(points)
    grad = np.einsum("qne,ced->cqnd", rgrad, Jinv)
    return VolumeTab(weights=wdet, points=xq, val=rval, grad=grad)


def wall_tab(space, tag, qdegree):
    """One-sided tabulation of a scalar space on the wall with the given
    tag, each edge from its owner cell, every edge in one tabulate call."""
    mesh = space.mesh
    edges = mesh.wall_edges(tag)
    t1, w1 = interval_rule(qdegree)
    cells = mesh.edge_cells[edges, 0]
    a, b = np.asarray(LOCAL_EDGES)[mesh.edge_local[edges, 0]].T
    pa, pb = mesh.cell_coords[cells, a], mesh.cell_coords[cells, b]
    tang = pb - pa
    length = np.hypot(tang[:, 0], tang[:, 1])
    ra, rb = REF_VERTICES[a], REF_VERTICES[b]
    rpts = ra[:, None, :] + t1[:, None] * (rb - ra)[:, None, :]  # (ne, nqe, 2)
    rval, rgrad = space.element.tabulate(rpts)
    shape = rpts.shape[:2] + rval.shape[1:]  # (ne, nqe, nloc)
    _, _, Jinv = mesh.jacobians()
    return EdgeTab(
        edges=edges, cells=cells, dofs=space.cell_dofs[cells],
        weights=w1 * length[:, None],
        points=pa[:, None, :] + t1[:, None] * tang[:, None, :],
        normals=np.stack([tang[:, 1], -tang[:, 0]], axis=1) / length[:, None],
        val=rval.reshape(shape),
        grad=np.einsum("kqne,ked->kqnd", rgrad.reshape(shape + (2,)), Jinv[cells]),
    )



def gradient_dot(W, qdegree):
    """The oracle g[i] = <grad w_i, e_g> by quadrature, straight from its
    integral: it holds on any mesh, a torus too, where y is not a CG
    function and stepper.Model's -(L y) does not apply."""
    tab = volume_tab(W, qdegree)
    local = np.einsum("cq,cqad,d->ca", tab.weights, tab.grad, np.asarray(GRAVITY))
    out = np.zeros(W.dim)
    np.add.at(out, W.cell_dofs.ravel(), local.ravel())
    return out
