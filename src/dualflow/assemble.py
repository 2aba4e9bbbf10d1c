"""Assembly of the discrete operators of the dual-field scheme.

Every function here builds and returns; none keeps what it builds.  The
only thing cached is a matrix sparsity pattern, computed once per
(test space, trial space) pair of dof maps and kept on the mesh;
repeated assembly only refills the CSR value array, in a fixed cell
order, so all operators are bitwise reproducible.

Every (W, W) matrix built here lies on the one cell pattern of W, its
exact zeros kept, wall forms included (each wall edge's local matrix is
scattered at its owner cell's positions), so static forms combine by
value arithmetic on .data.  Only the wall Neumann matrix, applied every
step, keeps its wall entries alone.

The step is linear in each known field, so only the rotation R(omega)
and the skew convection C(u) are assembled per step, both as CSR values
on the (W, W) pattern: C itself, and R seen through the stream-function
basis, Z^T R Z.  What R meets that is fixed is a static form in omega:
on the torus the harmonic columns Z^T R e_j are directional gradient
forms, which stepper.Model builds once.  R u is applied per cell; no
U x U matrix is formed.  A SkewSystem, built once per run, gathers a
static part's values and, each step, a skew part's onto the one CSR
matrix of a per-step system.
The static operators are built once per run by stepper.Model, which
owns them.

No form evaluates anything at quadrature points.  On an affine cell the
maps to the reference cell reduce every form to per-cell geometry
contracted with a reference integral (elements.form_tensor and
elements.skew_tensors): one GEMM, kernels.contraction, then the RT
signs and the scatter.  With the Piola map J r / det J of an RT basis
function r, the gradient J^-T grad w of a scalar one and the weight's
det J, the per-cell coefficients are det J for a scalar mass, det J
J^-1 J^-T for the curl-curl, J^T J / det J for the RT mass, e_g^T J for
the buoyancy, det J J^-1 v for the directional gradient along v (the
baroclinic form's v = e_g^perp, the torus border's -e_x and -e_y),
and, on a wall edge, its length for the mass and J^-1 (length n) for
the Neumann form.  The divergence is metric-free, and so are R and C:
(J r_a) x (J r_b) = det J (r_a x r_b) and (J r_k / det J) . (J^-T grad
w_a) = r_k . grad w_a / det J, the weight's det J
cancelling the rest, so their coefficients are the fields' own.

Index convention: for every matrix A produced here, A[i, j] pairs test
function i against trial function j.

The skew operators are skew *by construction*: Z^T R Z and C scatter
the local entries a < b at (a, b) and, in the same cell order, at
(b, a), and subtract the second sum from the first, so quadratic
invariants are conserved to round-off regardless of quadrature.
"""

import numpy as np
import scipy.sparse as sp

from . import kernels
from .elements import LOCAL_EDGES, form_tensor, reference_curl, skew_tensors
from .mesh import TAG_BOTTOM, TAG_TOP
from .spaces import Field, constant_velocities

GRAVITY = (0.0, -1.0)  # unit direction e_g of gravity


class _Pattern:
    """Fixed CSR pattern with per-cell scatter positions.

    One stable sort of the (row, column) keys of every local entry gives
    the pattern: a key that differs from its predecessor starts a new
    entry, and the running count of those starts is each local entry's
    CSR position."""

    def __init__(self, row_dofs, col_dofs, shape):
        C, na = row_dofs.shape
        nb = col_dofs.shape[1]
        rows = np.repeat(row_dofs, nb, axis=1).ravel()
        cols = np.tile(col_dofs, (1, na)).ravel()
        keys = rows.astype(np.int64) * shape[1] + cols
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        new = np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]])
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(new) - 1
        uniq = sorted_keys[new]
        self.pos = inverse.reshape(C, na, nb)
        self.indices = (uniq % shape[1]).astype(np.int32)
        counts = np.bincount(uniq // shape[1], minlength=shape[0])
        self.indptr = np.zeros(shape[0] + 1, dtype=np.int32)
        np.cumsum(counts, out=self.indptr[1:])
        # every matrix built here shares them: an in-place scipy operation
        # on one (eliminate_zeros, say) must fail, not rewrite the pattern
        self.indices.flags.writeable = self.indptr.flags.writeable = False
        self.nnz = len(uniq)
        self.shape = shape

    def values(self, local, cells=None):
        """The CSR values of the local matrices of every cell, or of
        `cells` in their order (a cell may repeat)."""
        pos = self.pos if cells is None else self.pos[cells]
        return kernels.scatter_matrix(pos, local, self.nnz)

    def build(self, local, cells=None):
        """The matrix of the local matrices, as in values."""
        return self.matrix(self.values(local, cells))

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


def _skew_values(space, coef, tensor):
    """The CSR values on the (space, space) pattern of the exactly skew
    matrix whose cells' entries a < b are P = coef @ tensor: P summed at
    (a, b) minus P summed, in the same cell order, at (b, a)."""
    cache = space.mesh._cache
    key = ("skew", space.family, space.degree)
    if key not in cache:
        pattern = _pattern(space, space)
        a, b = np.triu_indices(space.element.ndof, 1)
        # C-contiguous, so that scatter_matrix ravels them without a copy
        cache[key] = (pattern.nnz, np.ascontiguousarray(pattern.pos[:, a, b]),
                      np.ascontiguousarray(pattern.pos[:, b, a]))
    nnz, pos_ab, pos_ba = cache[key]
    P = kernels.contraction(coef, tensor)
    return kernels.scatter_matrix(pos_ab, P, nnz) - kernels.scatter_matrix(pos_ba, P, nnz)


def _form(test, trial, coef, qdegree, derivative=(False, False), cells=None):
    """The (test, trial) matrix whose cells' local matrices are coef @ T,
    RT signs applied, T = elements.form_tensor of the two spaces' bases
    (each differentiated if `derivative` says so): one row of coef per
    cell or, on a wall, per edge, `cells` its owner, against the tensor
    of the three local edges."""
    T = form_tensor((test.family, test.degree, derivative[0]),
                    (trial.family, trial.degree, derivative[1]), qdegree, cells is not None)
    which = slice(None) if cells is None else cells
    local = kernels.contraction(coef, T).reshape(len(coef), test.element.ndof, trial.element.ndof)
    local *= test.cell_dof_signs[which, :, None] * trial.cell_dof_signs[which, None, :]
    # entries zero but for rounding (on right triangles the P1 curl-curl
    # and P2 mass forms) are made exactly zero, so that a factor drops them
    size = np.abs(local)
    local[size <= 1e-14 * size.max(axis=(1, 2), keepdims=True)] = 0.0
    return _pattern(test, trial).build(local, cells)


def assemble_mass(space, qdegree):
    """Mass matrix <trial, test>; SPD for CG/DG/RT alike: det J M-hat on a
    scalar space, J^T J / det J against the reference tensor on RT."""
    J, det, _ = space.mesh.jacobians()
    coef = (np.swapaxes(J, 1, 2) @ J).reshape(-1, 4) / det[:, None] if space.family == "RT" \
        else det[:, None]
    return _form(space, space, coef, qdegree)


def assemble_curlcurl(space, qdegree):
    """<curl trial, curl test> on a scalar space; equals the stiffness form,
    det J J^-1 J^-T against the reference gradients."""
    _, det, Jinv = space.mesh.jacobians()
    coef = (det[:, None, None] * (Jinv @ np.swapaxes(Jinv, 1, 2))).reshape(-1, 4)
    return _form(space, space, coef, qdegree, (True, True))


def assemble_div(U, Q, qdegree):
    """Divergence pairing D[q, u] = <div u, q>, metric-free: det J cancels
    the Piola 1/det J."""
    if U.mesh is not Q.mesh:
        raise ValueError("velocity and pressure spaces live on different meshes")
    if Q.degree != U.degree - 1:
        raise ValueError(f"incompatible pair RT_{U.degree} / DG_{Q.degree}")
    return _form(Q, U, np.ones((U.mesh.num_cells, 1)), qdegree, (False, True))


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
    return _skew_values(W, omega.coefficients[W.cell_dofs], T_Z)


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
    return _skew_values(W, u.coefficients[U.cell_dofs] * U.cell_dof_signs, T_C)


class SkewSystem:
    """A per-step system S + scale K as one CSR matrix: the (space, space)
    cell pattern restricted to `dofs` (ascending; all of them if None),
    then, with a `corner`, len(corner) dense border rows and columns.

    S and K both come as values on the cell pattern, and `take`, built
    once, gathers either onto this pattern.  S's border is zero but for
    its `corner`.  K's border comes as its columns X (rows in this
    system's order, the last len(corner) of them the corner): the border
    rows take -X^T and the corner X's entries above the diagonal, mirrored
    with a minus, so K is exactly skew.

    The restriction keeps the cell pattern's CSR order, as `dofs` ascend,
    and each border entry is built after every entry left of it in its
    row, so one stable sort on the rows alone places the border.
    """

    def __init__(self, space, static, dofs=None, corner=None):
        full = _pattern(space, space)
        rows = np.repeat(np.arange(space.dim), np.diff(full.indptr))
        cols, src = full.indices, np.arange(full.nnz)
        if dofs is not None:
            where = np.full(space.dim, -1)
            where[dofs] = np.arange(len(dofs))
            keep = (where[rows] >= 0) & (where[cols] >= 0)
            rows, cols, src = where[rows[keep]], where[cols[keep]], src[keep]
        m = space.dim if dofs is None else len(dofs)
        border = 0 if corner is None else len(corner)
        size = m + border
        if border:
            # the values are followed by X's first m rows, their negatives
            # and the corner
            r, j = np.divmod(np.arange(m * border), border)
            ci, cj = np.divmod(np.arange(border * border), border)
            rows = np.concatenate([rows, r, m + j, m + ci])
            cols = np.concatenate([cols, m + j, r, m + cj])
            src = np.concatenate([src, full.nnz + np.arange(2 * m * border + border * border)])
            static = np.concatenate([static, np.zeros(2 * m * border), np.ravel(corner)])
            order = np.argsort(rows, kind="stable")
            rows, cols, src = rows[order], cols[order], src[order]
        indptr = np.zeros(size + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
        self.static = sp.csr_matrix((static[src], cols.astype(np.int32), indptr),
                                    shape=(size, size))
        self.take = None if np.array_equal(src, np.arange(len(src))) else src

    def skew_values(self, values, border=None):
        """K's CSR values on this pattern."""
        if border is not None:
            m = len(border) - border.shape[1]
            corner = np.triu(border[m:], 1)
            values = np.concatenate([values, border[:m].ravel(), -border[:m].ravel(),
                                     (corner - corner.T).ravel()])
        return values if self.take is None else values[self.take]

    def matrix(self, scale, values, border=None):
        """S + scale K, with K given as in skew_values."""
        S = self.static
        data = scale * self.skew_values(values, border)
        data += S.data
        return sp.csr_matrix((data, S.indices, S.indptr), shape=S.shape)


def _wall(space, tag):
    """The owner cell of each edge of a wall, its local edge as a one-hot
    row (E, 3) and its tangent in the owner's orientation (E, 2)."""
    mesh = space.mesh
    edges = mesh.wall_edges(tag)
    cells, loc = mesh.edge_cells[edges, 0], mesh.edge_local[edges, 0]
    a, b = np.asarray(LOCAL_EDGES)[loc].T
    return cells, np.eye(3)[loc], mesh.cell_coords[cells, b] - mesh.cell_coords[cells, a]


def assemble_wall_mass(space, tag, qdegree):
    """Boundary mass matrix <trial, test> over one tagged wall: the edge
    length against the owner's local edge's reference tensor."""
    cells, onehot, tang = _wall(space, tag)
    return _form(space, space, onehot * np.hypot(tang[:, 0], tang[:, 1])[:, None], qdegree,
                 cells=cells)


def assemble_particle_drift(u_s, U, W, qdegree, bdegree):
    """Static part of the particle transport operator: the skew convection
    u_s C(I e_g) by the settling drift, I e_g the gravity direction in U
    (spaces.constant_velocities: RT holds constants), plus the settling terms
    u_s (B_top + B_bottom) / 2 on the top and bottom walls.

    The transport operator is C(u) + this drift: the volume part is the
    skew part of <w_b, div(u_p w_a)> with u_p = u + u_s e_g, which is
    linear in u_p.  Both wall terms enter with +u_s/2 so that pairing
    against the constant test function reduces the operator to the
    bottom-wall settling outflux, which conserves particle mass.
    """
    if u_s < 0:
        raise ValueError(f"settling speed must be nonnegative, got {u_s}")
    e_g = Field(U, constant_velocities(U) @ GRAVITY)
    B1 = assemble_wall_mass(W, TAG_TOP, bdegree).data
    B3 = assemble_wall_mass(W, TAG_BOTTOM, bdegree).data
    C = assemble_vorticity_convection(e_g, W, qdegree)
    return _pattern(W, W).matrix(u_s * C + u_s * (0.5 * B1 + 0.5 * B3))


def assemble_buoyancy(U, W, qdegree):
    """B[i, k] = <w_k e_g, u_i>; the buoyancy vector is b = B phi.  The
    Piola J / det J and the weight's det J leave e_g^T J."""
    return _form(U, W, np.asarray(GRAVITY) @ U.mesh.jacobians()[0], qdegree)


def assemble_directional_gradient(W, v, qdegree, transposed=False):
    """G[i, k] = <grad w_k . v, w_i> for a constant direction v, or, if
    `transposed`, G^T, the test side differentiated: det J J^-1 v against
    the reference gradients."""
    _, det, Jinv = W.mesh.jacobians()
    return _form(W, W, det[:, None] * (Jinv @ np.asarray(v, dtype=float)), qdegree,
                 (transposed, not transposed))


def assemble_baroclinic(W, qdegree):
    """Cb[i, k] = <grad w_k x e_g, w_i>; the source c = Cb phi is
    <grad phi x e_g, w_i>, with e_g=(0,-1) this is -d(phi)/dx.
    grad w x e_g = grad w . e_g^perp, e_g^perp = (g_y, -g_x): the
    directional gradient along e_g^perp."""
    return assemble_directional_gradient(W, (GRAVITY[1], -GRAVITY[0]), qdegree)


def assemble_vorticity_neumann(W, bdegree):
    """Nn[i, k] = <w_i, grad(w_k).n> over the top and bottom walls; the
    wall source is g = Nn omega_tilde.

    Uses the identity (curl w) x n = grad(w).n, evaluated one-sidedly
    from the boundary cells: length n = (t_y, -t_x) for the owner's
    tangent t, so the coefficient is J^-1 (t_y, -t_x) in the local
    edge's block.  The matrix keeps its nonzero wall entries alone: a
    step applies it.
    """
    pattern = _pattern(W, W)
    values = np.zeros(pattern.nnz)
    for tag in (TAG_TOP, TAG_BOTTOM):
        cells, onehot, tang = _wall(W, tag)
        ln = np.einsum("ced,cd->ce", W.mesh.jacobians()[2][cells], tang[:, ::-1] * [1.0, -1.0])
        coef = (onehot[:, :, None] * ln[:, None, :]).reshape(len(cells), -1)
        values += _form(W, W, coef, bdegree, (False, True), cells).data
    Nn = pattern.matrix(values).copy()  # the pattern's arrays stay intact
    Nn.eliminate_zeros()
    return Nn
