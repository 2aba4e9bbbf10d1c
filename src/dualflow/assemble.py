"""Assembly of the discrete operators of the dual-field scheme.

Every function here builds and returns; none keeps what it builds.  The
only thing cached is a matrix sparsity pattern, computed once per
(test space, trial space) pair of dof maps and kept on the mesh;
repeated assembly only refills the CSR value array, in a fixed cell
order, so all operators are bitwise reproducible.

The step is linear in each known field, so only the rotation R(omega)
and the skew convection C(u) are assembled per step, both as CSR values
on the (W, W) pattern: C itself, and R seen through the stream-function
basis, Z^T R Z.  R u is applied per cell; no U x U matrix is formed.  A
SkewSystem, built once per run, turns those values into the one CSR
matrix of a per-step system.  The static
operators (the weak curl Lc, buoyancy, baroclinic, the wall Neumann
term, the particle drift and the discrete curl Z) are built once per run
by stepper.Model, which owns them.

R and C evaluate no field at quadrature points.  On an affine cell the
Piola maps cancel, (J r_a) x (J r_b) = det J (r_a x r_b) and (J r_k /
det J) . (J^-T grad w_a) = r_k . grad w_a / det J, and the weight's det J
cancels the remaining 1/det J: both are one reference-tensor contraction.

Index convention: for every matrix A produced here, A[i, j] pairs test
function i against trial function j.

The skew operators are skew *by construction*: Z^T R Z and C scatter
each local entry a < b together with its negative at (b, a), in cell
order, so quadratic invariants are conserved to round-off regardless of
quadrature.
"""

import numpy as np
import scipy.sparse as sp

from . import kernels
from .elements import reference_curl, skew_tensors
from .mesh import TAG_BOTTOM, TAG_TOP
from .spaces import interpolate

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
        """The matrix of the local matrices."""
        return self.matrix(kernels.scatter_matrix(self.pos, local, self.nnz))

    def matrix(self, data):
        """The matrix with the CSR values `data` on this pattern."""
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


def _skew_pattern(space):
    """The (space, space) pattern of a scalar space and the positions
    (pos[a, b], pos[b, a]) of each cell's pairs a < b: scattering (P, -P)
    there adds P at (a, b) and its negative at (b, a), in cell order."""
    cache = space.mesh._cache
    key = ("skew", space.family, space.degree)
    if key not in cache:
        pattern = _pattern(space, space)
        a, b = np.triu_indices(space.element.ndof, 1)
        pos = np.stack([pattern.pos[:, a, b], pattern.pos[:, b, a]], axis=-1)
        cache[key] = pattern, np.ascontiguousarray(pos)  # ravels without a copy
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
    """The rotation R[i, j] = <omega x u_j, u_i> of the momentum step, seen
    through the discrete curl Z; no U x U matrix is formed.

    Z is cell-local, Z_c = S_c Z_loc with S_c the RT signs, and R_c =
    S_c T(omega_c) S_c with T(omega_c) = sum_k omega_k T_R[k].  The signs
    cancel, so Z^T R Z = sum_c Z_loc^T T(omega_c) Z_loc is one
    contraction with T_Z (elements.skew_tensors), scattered on the (W, W)
    pattern like C.  Returns its CSR values, exactly skew.
    """
    W = omega.space
    _, _, T_Z = skew_tensors(W.degree, U.degree, qdegree)
    pattern, pos = _skew_pattern(W)
    coef = omega.coefficients[W.cell_dofs]
    return kernels.scatter_matrix(pos, kernels.skew_contraction(coef, T_Z), pattern.nnz)


def apply_rotation(omega, U, qdegree, u):
    """R u per cell, sum_c S_c T(omega_c) S_c u_c: one GEMM of T_R
    (elements.skew_tensors) against the cells' outer products of omega
    and u coefficients, cells last so that the products run along
    contiguous rows; no matrix is formed."""
    W = omega.space
    T_R = skew_tensors(W.degree, U.degree, qdegree)[0]
    s = U.cell_dof_signs
    outer = (np.ascontiguousarray(omega.coefficients[W.cell_dofs].T)[:, None, :]
             * np.ascontiguousarray((u[U.cell_dofs] * s).T)[None, :, :])
    v = (T_R @ outer.reshape(T_R.shape[1], -1)).T * s
    return np.bincount(U.cell_dofs.ravel(), weights=v.ravel(), minlength=U.dim)


def assemble_vorticity_convection(u, W, qdegree):
    """The CSR values, on the (W, W) pattern, of the skew convection
    C = (G^T - G)/2 with G[a,b] = <w_b, div(u w_a)>, exactly skew."""
    U = u.space
    _, T_C, _ = skew_tensors(W.degree, U.degree, qdegree)
    pattern, pos = _skew_pattern(W)
    coef = u.coefficients[U.cell_dofs] * U.cell_dof_signs
    return kernels.scatter_matrix(pos, kernels.skew_contraction(coef, T_C), pattern.nnz)


class SkewSystem:
    """A per-step system S + scale K as one CSR matrix on the pattern of
    its static part S: the (space, space) pattern restricted to `dofs`
    (all of them if None), then `border` dense rows and columns.

    K comes as its values on the (space, space) pattern and, if
    bordered, its border columns X (rows in this system's order, the
    last `border` of them the corner).  The border rows take -X^T and
    the corner X's entries above the diagonal, so K is exactly skew.
    `take`, built once, gathers all of it onto this pattern; S is laid
    onto it once.
    """

    def __init__(self, S, space, dofs=None, border=0):
        full = _pattern(space, space)
        rows = np.repeat(np.arange(space.dim), np.diff(full.indptr))
        cols, src = full.indices, np.arange(full.nnz)
        if dofs is not None:
            where = np.full(space.dim, -1)
            where[dofs] = np.arange(len(dofs))
            keep = (where[rows] >= 0) & (where[cols] >= 0)
            rows, cols, src = where[rows[keep]], where[cols[keep]], src[keep]
        m = space.dim if dofs is None else len(dofs)
        size = m + border
        if border:
            # the values are followed by X (size x border), -X and a zero
            r, j = np.divmod(np.arange(m * border), border)
            x = full.nnz + r * border + j
            ci, cj = np.divmod(np.arange(border * border), border)
            corner = np.where(ci < cj, full.nnz + (m + ci) * border + cj,
                              full.nnz + size * border + (m + cj) * border + ci)
            corner[ci == cj] = full.nnz + 2 * size * border
            rows = np.concatenate([rows, r, m + j, m + ci])
            cols = np.concatenate([cols, m + j, r, m + cj])
            src = np.concatenate([src, x, x + size * border, corner])
        keys = rows.astype(np.int64) * size + cols
        order = np.argsort(keys, kind="stable")  # sorted already but for a border
        keys, src = keys[order], src[order]
        S = S.tocoo()
        wanted = S.row.astype(np.int64) * size + S.col
        at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        if np.any(keys[at] != wanted):
            raise ValueError("the static matrix has an entry outside the pattern of its system")
        indptr = np.zeros(size + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
        self.static = sp.csr_matrix((np.bincount(at, weights=S.data, minlength=len(keys)),
                                     (keys % size).astype(np.int32), indptr), shape=(size, size))
        self.take = None if np.array_equal(src, np.arange(len(src))) else src

    def skew_values(self, values, border=None):
        """K's CSR values on this pattern."""
        if border is not None:
            values = np.concatenate([values, border.ravel(), -border.ravel(), [0.0]])
        return values if self.take is None else values[self.take]

    def matrix(self, scale, values, border=None):
        """S + scale K, with K given as in skew_values."""
        S = self.static
        data = scale * self.skew_values(values, border)
        data += S.data
        return sp.csr_matrix((data, S.indices, S.indptr), shape=S.shape)


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


def assemble_particle_drift(u_s, U, W, qdegree, bdegree):
    """Static part of the particle transport operator: the skew convection
    u_s C(I e_g) by the settling drift, I e_g the interpolant in U of the
    gravity direction (exact, RT holds constants), plus the settling terms
    u_s (B_top + B_bottom) / 2 on the top and bottom walls.

    The transport operator is C(u) + this drift: the volume part is the
    skew part of <w_b, div(u_p w_a)> with u_p = u + u_s e_g, which is
    linear in u_p.  Both wall terms enter with +u_s/2 so that pairing
    against the constant test function reduces the operator to the
    bottom-wall settling outflux, which conserves particle mass.
    """
    if u_s < 0:
        raise ValueError(f"settling speed must be nonnegative, got {u_s}")
    if u_s == 0.0:
        return sp.csr_matrix((W.dim, W.dim))
    e_g = interpolate(U, lambda x, y: GRAVITY)
    B1 = assemble_wall_mass(W, TAG_TOP, bdegree)
    B3 = assemble_wall_mass(W, TAG_BOTTOM, bdegree)
    C = _pattern(W, W).matrix(assemble_vorticity_convection(e_g, W, qdegree))
    return (u_s * C + u_s * (0.5 * B1 + 0.5 * B3)).tocsr()


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
