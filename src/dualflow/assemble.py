"""Assembly of the discrete operators of the dual-field scheme.

Every function here builds and returns; none keeps what it builds.  The
only thing cached is a matrix sparsity pattern, computed once per
(test space, trial space) pair of dof maps and kept on the mesh;
repeated assembly only refills the CSR value array, in a fixed cell
order, so all operators are bitwise reproducible.

The step is linear in each known field, so only the rotation R(omega)
and the skew convection C(u) are assembled per step.  The static operators
(the weak curl Lc, buoyancy, baroclinic, the wall Neumann term, the
particle drift and the discrete curl Z) are built once per run by
stepper.Model, which owns them.

Index convention: for every matrix A produced here, A[i, j] pairs test
function i against trial function j.

The skew operators are skew *by construction*: the rotation and the
vorticity convection are skewed cell by cell before the scatter, and the
static settling drift is the exact skew part of its assembled matrix,
so quadratic invariants are conserved to round-off regardless of
quadrature.
"""

import numpy as np
import scipy.sparse as sp

from . import kernels
from .elements import reference_curl
from .mesh import TAG_BOTTOM, TAG_TOP

GRAVITY = (0.0, -1.0)  # unit direction e_g of gravity


class _Pattern:
    """Fixed CSR pattern with per-cell scatter positions."""

    def __init__(self, row_dofs, col_dofs, shape):
        C, na = row_dofs.shape
        nb = col_dofs.shape[1]
        rows = np.repeat(row_dofs, nb, axis=1).ravel()
        cols = np.tile(col_dofs, (1, na)).ravel()
        keys = rows.astype(np.int64) * shape[1] + cols
        uniq, inverse = np.unique(keys, return_inverse=True)
        self.pos = inverse.reshape(C, na, nb)
        self.indices = (uniq % shape[1]).astype(np.int32)
        counts = np.bincount(uniq // shape[1], minlength=shape[0])
        self.indptr = np.zeros(shape[0] + 1, dtype=np.int32)
        np.cumsum(counts, out=self.indptr[1:])
        self.nnz = len(uniq)
        self.shape = shape

    def build(self, local):
        data = np.zeros(self.nnz)
        kernels.scatter_matrix(data, self.pos, local)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)


def _pattern(row_space, col_space):
    """The pattern of the (row_space, col_space) pair, built once per mesh.
    A pattern depends only on the two dof maps, which family and degree fix."""
    cache = row_space.mesh._cache
    key = ("pattern", row_space.family, row_space.degree, col_space.family, col_space.degree)
    if key not in cache:
        cache[key] = _Pattern(row_space.cell_dofs, col_space.cell_dofs,
                              (row_space.dim, col_space.dim))
    return cache[key]


def assemble_mass(space, qdegree):
    """Mass matrix <trial, test>; SPD for CG/DG/RT alike."""
    tab = space.volume_data(qdegree)
    pair = kernels.pairing_vec if space.family == "RT" else kernels.pairing
    return _pattern(space, space).build(pair(tab.weights, tab.val, tab.val))


def assemble_curlcurl(space, qdegree):
    """<curl trial, curl test> on a scalar space; equals the stiffness form."""
    tab = space.volume_data(qdegree)
    return _pattern(space, space).build(kernels.pairing_vec(tab.weights, tab.grad, tab.grad))


def assemble_div(U, Q, qdegree):
    """Divergence pairing D[q, u] = <div u, q>."""
    if U.mesh is not Q.mesh:
        raise ValueError("velocity and pressure spaces live on different meshes")
    if Q.degree != U.degree - 1:
        raise ValueError(f"incompatible pair RT_{U.degree} / DG_{Q.degree}")
    utab = U.volume_data(qdegree)
    qtab = Q.volume_data(qdegree)
    return _pattern(Q, U).build(kernels.pairing(utab.weights, qtab.val, utab.div))


def assemble_weak_curl(U, W, qdegree):
    """Weak curl Lc[a, k] = <curl w_k, u_a>, curl w = (dw/dy, -dw/dx).

    Lc omega is the viscous vector l[a] = <curl omega, u_a> of the
    momentum step, and Lc^T u the right-hand side <u, curl w_k> of the
    weak curl recovery.
    """
    utab = U.volume_data(qdegree)
    wtab = W.volume_data(qdegree)
    curl = np.stack([wtab.grad[..., 1], -wtab.grad[..., 0]], axis=-1)
    return _pattern(U, W).build(kernels.pairing_vec(utab.weights, utab.val, curl))


def curl_matrix(W, U):
    """Discrete curl Z[a, k] = RT dof a of curl w_k (U.dim x W.dim).

    The reference matrix of elements.reference_curl with the RT dof signs
    applied; no geometry enters.  An edge row is taken from the edge's
    first cell and an interior row from its own cell, so every row is
    written once.
    """
    Zloc = reference_curl(W.element, U.element)
    edge_cells = U.mesh.edge_cells[U.mesh.cell_edges, 0]  # (C, 3)
    own = np.ones(U.cell_dofs.shape, dtype=bool)
    for loc, cols in enumerate(U.element.edge_dofs):
        own[:, cols] = (edge_cells[:, loc] == np.arange(len(edge_cells)))[:, None]
    keep = own[:, :, None] & (Zloc != 0.0)[None, :, :]
    vals = U.cell_dof_signs[:, :, None] * Zloc[None, :, :]
    rows = np.broadcast_to(U.cell_dofs[:, :, None], keep.shape)
    cols = np.broadcast_to(W.cell_dofs[:, None, :], keep.shape)
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(U.dim, W.dim))


def assemble_rotation(omega, U, qdegree):
    """Rotation operator R[i,j] = <omega x u_j, u_i>, exactly skew."""
    W = omega.space
    utab = U.volume_data(qdegree)
    wtab = W.volume_data(qdegree)
    wq = kernels.field_scalar(W.cell_dofs, omega.coefficients, wtab.val)
    return _pattern(U, U).build(kernels.rotation(utab.weights, wq, utab.val))


def skew_part(G):
    """Exact skew-symmetrization 0.5*(G^T - G) of an assembled matrix."""
    return 0.5 * (G.T.tocsr() - G)


def assemble_vorticity_convection(u, W, qdegree):
    """The skew convection C = (G^T - G)/2 with G[a,b] = <w_b, div(u w_a)>.

    Each cell's local G is skewed before the scatter, as kernels.rotation
    does, so C is exactly skew with no global transpose."""
    U = u.space
    utab = U.volume_data(qdegree)
    wtab = W.volume_data(qdegree)
    uq = kernels.field_vec(U.cell_dofs, u.coefficients, utab.val)
    duq = kernels.field_div(U.cell_dofs, u.coefficients, utab.div)
    G = kernels.convection(wtab.weights, wtab.val, wtab.grad, uq, duq)
    return _pattern(W, W).build(0.5 * (np.swapaxes(G, 1, 2) - G))


def assemble_wall_mass(space, tag, qdegree):
    """Boundary mass matrix <trial, test> over one tagged wall."""
    tab = space.boundary_data(tag, qdegree)
    return _boundary_matrix(tab, tab, kernels.pairing(tab.weights, tab.val, tab.val),
                            (space.dim, space.dim))


def _boundary_matrix(row_tab, col_tab, local, shape):
    if len(row_tab.edges) == 0:
        return sp.csr_matrix(shape)
    rows = np.repeat(row_tab.dofs, col_tab.dofs.shape[1], axis=1).ravel()
    cols = np.tile(col_tab.dofs, (1, row_tab.dofs.shape[1])).ravel()
    B = sp.csr_matrix((local.ravel(), (rows, cols)), shape=shape)
    B.sum_duplicates()
    return B


def assemble_particle_drift(u_s, W, qdegree, bdegree):
    """Static part of the particle transport operator: the exact skew part
    of the constant settling drift <w_b, div(u_s e_g w_a)> plus the
    settling terms u_s (B_top + B_bottom) / 2 on the top and bottom walls.

    The transport operator is skew(G(u)) + this drift: the volume part is
    the skew part of <w_b, div(u_p w_a)> with u_p = u + u_s e_g, which is
    linear in u_p.  Both wall terms enter with +u_s/2 so that pairing
    against the constant test function reduces the operator to the
    bottom-wall settling outflux, which conserves particle mass.
    """
    if u_s < 0:
        raise ValueError(f"settling speed must be nonnegative, got {u_s}")
    if u_s == 0.0:
        return sp.csr_matrix((W.dim, W.dim))
    wtab = W.volume_data(qdegree)
    C, nq = wtab.weights.shape
    drift = np.broadcast_to(np.array(GRAVITY, dtype=float), (C, nq, 2))
    G = _pattern(W, W).build(
        kernels.convection(wtab.weights, wtab.val, wtab.grad, drift, np.zeros((C, nq))))
    B1 = assemble_wall_mass(W, TAG_TOP, bdegree)
    B3 = assemble_wall_mass(W, TAG_BOTTOM, bdegree)
    return (u_s * skew_part(G) + u_s * (0.5 * B1 + 0.5 * B3)).tocsr()


def assemble_buoyancy(U, W, qdegree):
    """B[i, k] = <w_k e_g, u_i>; the buoyancy vector is b = B phi."""
    utab = U.volume_data(qdegree)
    wtab = W.volume_data(qdegree)
    g_dot_u = GRAVITY[0] * utab.val[..., 0] + GRAVITY[1] * utab.val[..., 1]
    return _pattern(U, W).build(kernels.pairing(utab.weights, g_dot_u, wtab.val))


def assemble_baroclinic(W, qdegree):
    """Cb[i, k] = <grad w_k x e_g, w_i>; the source c = Cb phi is
    <grad phi x e_g, w_i>, with e_g=(0,-1) this is -d(phi)/dx."""
    wtab = W.volume_data(qdegree)
    cross = wtab.grad[..., 0] * GRAVITY[1] - wtab.grad[..., 1] * GRAVITY[0]
    return _pattern(W, W).build(kernels.pairing(wtab.weights, wtab.val, cross))


def assemble_vorticity_neumann(W, bdegree):
    """Nn[i, k] = <w_i, grad(w_k).n> over the top and bottom walls; the
    wall source is g = Nn omega_tilde.

    Uses the identity (curl w) x n = grad(w).n, evaluated one-sidedly
    from the boundary cells.
    """
    out = sp.csr_matrix((W.dim, W.dim))
    for tag in (TAG_TOP, TAG_BOTTOM):
        tab = W.boundary_data(tag, bdegree)
        gn = np.einsum("eqnd,ed->eqn", tab.grad, tab.normals)
        local = kernels.pairing(tab.weights, tab.val, gn)
        out = out + _boundary_matrix(tab, tab, local, out.shape)
    return out.tocsr()


def assemble_gradient_dot(space, qdegree):
    """Static vector gvec[i] = <grad w_i, e_g>; phi^T gvec = <grad phi, e_g>."""
    tab = space.volume_data(qdegree)
    fq = tab.grad[..., 0] * GRAVITY[0] + tab.grad[..., 1] * GRAVITY[1]
    local = np.einsum("cq,cqa->ca", tab.weights, fq)
    out = np.zeros(space.dim)
    kernels.scatter_vector(out, space.cell_dofs, local)
    return out
