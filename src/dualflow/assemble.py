"""Assembly of the discrete operators of the dual-field scheme.

Every function here builds and returns; none keeps what it builds.  The
only thing cached is a matrix sparsity pattern, computed once per
(test space, trial space) pair of dof maps and kept on the mesh;
repeated assembly only refills the CSR value array, in a fixed cell
order, so all operators are bitwise reproducible.  A run builds one,
the (W, W) pattern: the divergence D, whose entries are no sums, is
written row by row without one.

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
forms, which stepper.Model builds once.  A step applies R to no
velocity: it solves for the midpoint of the stream function, whose load
holds no rotation, and so does every startup pass.

The forms with the RT test space that a run only applies, never
factors, the mass M, the buoyancy B and the rotation R, are never
assembled: VelocityForms applies them per cell, from the per-cell data
alone, in one GEMM and one scatter (the pressure residual, the kinetic
energy, the startup projection Z^T M u^0 and the torus corner H^T M H).
The only velocity-space matrices built here are the divergence D and
the topological curl Z; no U x U or U x W matrix is formed.
stepper.Model builds the static operators and the linear systems
(System) once per run, and owns them; a per-step System refills the
values of its one CSR matrix in place each step, and writes them
nowhere else.  The snapshot pressure has no system: PressureTree solves
D_r^T p = r by local solves on a spanning tree of the cells, and
factors nothing.

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
invariants are conserved to round-off regardless of quadrature.  No
function here takes a quadrature degree: `elements` integrates each
polynomial integrand exactly, at the rule of its degree; only what
meets an analytic field, in `spaces`, keeps a chosen rule.
"""

import numpy as np
import scipy.sparse as sp

from . import kernels
from .elements import LOCAL_EDGES, form_tensor, reference_curl, skew_tensors
from .linsolve import CachedLU, ScaledLU, SolverError, lu_solve
from .mesh import TAG_BOTTOM, TAG_TOP, MeshError
from .spaces import constant_velocities

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


def _tensor(test, trial, derivative=(False, False), on_edges=False):
    """elements.form_tensor of the (test, trial) bases."""
    return form_tensor((test.family, test.degree, derivative[0]),
                       (trial.family, trial.degree, derivative[1]), on_edges)


def _local(test, trial, coef, derivative=(False, False), cells=None):
    """The local matrices coef @ T, RT signs applied, T =
    elements.form_tensor of the two spaces' bases (each differentiated if
    `derivative` says so): one row of coef per cell or, on a wall, per
    edge, `cells` its owner, against the tensor of the three local edges."""
    T = _tensor(test, trial, derivative, cells is not None)
    which = slice(None) if cells is None else cells
    local = kernels.contraction(coef, T).reshape(len(coef), test.element.ndof, trial.element.ndof)
    local *= test.cell_dof_signs[which, :, None] * trial.cell_dof_signs[which, None, :]
    return _exact_zeros(local)


def _exact_zeros(local):
    """The local matrices (..., a, b) with each entry zero but for rounding
    made exactly zero, in place: on right triangles the P1 curl-curl and
    P2 mass forms have some, and a factor drops them."""
    size = np.abs(local)
    local[size <= 1e-14 * size.max(axis=(-2, -1), keepdims=True)] = 0.0
    return local


def _form(test, trial, coef, derivative=(False, False), cells=None):
    """The (test, trial) matrix of the local matrices of _local, summed on
    the pair's pattern."""
    pattern = _pattern(test, trial)
    return pattern.matrix(pattern.values(_local(test, trial, coef, derivative, cells), cells))


def _mass_coefficients(space):
    """The per-cell coefficients (C, k) of the mass form: J^T J / det J on
    RT, det J on a scalar space."""
    J, det, _ = space.mesh.jacobians()
    return (np.swapaxes(J, 1, 2) @ J).reshape(-1, 4) / det[:, None] if space.family == "RT" \
        else det[:, None]


def assemble_mass(space):
    """Mass matrix <trial, test>; SPD for CG/DG/RT alike: det J M-hat on a
    scalar space, J^T J / det J against the reference tensor on RT."""
    return _form(space, space, _mass_coefficients(space))


def assemble_integrals(space):
    """<w_i, 1> for a scalar space, each cell's det J times the reference
    integrals, summed per dof; no matrix is formed."""
    n = space.element.ndof
    local = _mass_coefficients(space) * _tensor(space, space).reshape(n, n).sum(axis=1)
    return np.bincount(space.cell_dofs.ravel(), weights=local.ravel(), minlength=space.dim)


def assemble_curlcurl(space):
    """<curl trial, curl test> on a scalar space; equals the stiffness form,
    det J J^-1 J^-T against the reference gradients."""
    _, det, Jinv = space.mesh.jacobians()
    coef = (det[:, None, None] * (Jinv @ np.swapaxes(Jinv, 1, 2))).reshape(-1, 4)
    return _form(space, space, coef, (True, True))


def assemble_div(U, Q):
    """Divergence pairing D[q, u] = <div u, q>, metric-free: det J cancels
    the Piola 1/det J.

    A DG function lives on one cell, so row q of D is its cell's local
    row, on that cell's RT dofs, and no entry is a sum: the CSR arrays
    are written row by row, each cell's RT dofs sorted once, zeros kept,
    with no pattern."""
    local = _local(Q, U, np.ones((U.mesh.num_cells, 1)), (False, True))
    n = U.element.ndof
    order = np.argsort(U.cell_dofs, axis=1)
    data, indices = np.empty((Q.dim, n)), np.empty((Q.dim, n), dtype=np.int32)
    data[Q.cell_dofs] = np.take_along_axis(local, order[:, None, :], axis=2)
    indices[Q.cell_dofs] = np.take_along_axis(U.cell_dofs, order, axis=1)[:, None, :]
    indptr = n * np.arange(Q.dim + 1, dtype=np.int32)
    return sp.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(Q.dim, U.dim))


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


def assemble_rotation(omega, W, U):
    """The rotation R[i, j] = <omega x u_j, u_i> of the momentum step at the
    W coefficients omega, seen through the discrete curl Z; no U x U
    matrix is formed.

    Z is cell-local, Z_c = S_c Z_loc with S_c the RT signs, and R_c =
    S_c T(omega_c) S_c with T(omega_c) = sum_k omega_k T_R[k].  The signs
    cancel, so Z^T R Z = sum_c Z_loc^T T(omega_c) Z_loc is one
    contraction with T_Z (elements.skew_tensors), scattered on the (W, W)
    pattern like C.  Returns its CSR values, exactly skew.
    """
    _, _, T_Z = skew_tensors(W.degree, U.degree)
    return _skew_values(W, omega[W.cell_dofs], T_Z)


def _applied(test, trial):
    """elements.form_tensor of a (test, trial) form laid out for one GEMM
    against the cells' outer products (per-cell data k) x (trial
    coefficient b), cells last: T[a, k n_b + b]."""
    na, nb = test.element.ndof, trial.element.ndof
    return np.ascontiguousarray(_tensor(test, trial).reshape(-1, na, nb).transpose(1, 0, 2)).reshape(na, -1)


class VelocityForms:
    """The forms with the RT test space that a run only applies, never
    factors: the mass M[i, j] = <u_j, u_i>, the rotation R[i, j] = <omega
    x u_j, u_i> and the buoyancy B[i, k] = <w_k e_g, u_i>.  No U x U or
    U x W matrix and no pattern is formed: each is applied per cell, its
    reference tensor laid out for one GEMM against the cells' outer
    products of per-cell data and the coefficients it acts on (T_R of
    elements.skew_tensors against the omega coefficients, the mass and
    buoyancy form_tensors against the geometry J^T J / det J and e_g^T J),
    cells last so that the products run along contiguous rows, with the
    RT signs S_c on both sides: M_c = S_c M(J_c) S_c, B_c = S_c B(J_c),
    R_c = S_c T(omega_c) S_c.  Building it forms the per-cell geometry
    alone."""

    def __init__(self, W, U):
        J, det, _ = U.mesh.jacobians()
        self.U = U
        self.dofs, self.w_dofs = np.ascontiguousarray(U.cell_dofs.T), np.ascontiguousarray(W.cell_dofs.T)
        self.signs = np.ascontiguousarray(U.cell_dof_signs.T)
        self.T_R = skew_tensors(W.degree, U.degree)[0]
        self.T_M, self.T_B = _applied(U, U), _applied(U, W)
        self.mass = np.ascontiguousarray(_mass_coefficients(U).T)
        self.gravity = np.ascontiguousarray((np.asarray(GRAVITY) @ J).T)

    def _cells(self, a=None, omega=None, v=None, phi=None):
        """Each cell's share (n, C) of M a + R(omega) v + B phi, of the terms
        given: one GEMM of the stacked tensors against the stacked outer
        products."""
        terms = []
        if a is not None:
            terms.append((self.T_M, self.mass, a[self.dofs] * self.signs))
        if omega is not None:
            terms.append((self.T_R, omega[self.w_dofs], v[self.dofs] * self.signs))
        if phi is not None:
            terms.append((self.T_B, self.gravity, phi[self.w_dofs]))
        T = np.hstack([t[0] for t in terms])
        X = np.empty((T.shape[1], self.dofs.shape[1]))
        start = 0
        for _, data, x in terms:
            stop = start + len(data) * len(x)
            np.multiply(data[:, None, :], x[None, :, :], out=X[start:stop].reshape(len(data), len(x), -1))
            start = stop
        r = T @ X
        r *= self.signs
        return r

    def apply(self, a=None, omega=None, v=None, phi=None):
        """M a + R(omega) v + B phi, of the terms given: the cells' shares in
        one scatter."""
        r = self._cells(a, omega, v, phi)
        return np.bincount(self.dofs.ravel(), weights=r.ravel(), minlength=self.U.dim)

    def energy(self, u):
        """u^T M u / 2, the cells' quadratic forms summed; nothing is scattered."""
        return 0.5 * float(np.sum(u[self.dofs] * self._cells(a=u)))


def assemble_vorticity_convection(u, U, W):
    """The CSR values, on the (W, W) pattern, of the skew convection
    C = (G^T - G)/2 with G[a,b] = <w_b, div(u w_a)> by the U coefficients
    u, exactly skew."""
    _, T_C, _ = skew_tensors(W.degree, U.degree)
    return _skew_values(W, u[U.cell_dofs] * U.cell_dof_signs, T_C)


class System:
    """One named linear system of a run: its CSR pattern, its static part
    S, the factor its solves refine against (a CachedLU of S, or another
    system's, see sharing_factor) and the solve.  A per-step system is S +
    scale K, with K given each step as values on the cell pattern
    (skew_values), refilled into the one CSR matrix the system owns."""

    def __init__(self, name, static, take=None, lu=None):
        self.name, self.static, self.take = name, static, take  # take: see on_cells
        self.lu = CachedLU(static) if lu is None else lu
        self._A = sp.csr_matrix((static.data.copy(), static.indices, static.indptr), shape=static.shape)

    @classmethod
    def on_cells(cls, name, space, static, dofs=None, corner=None):
        """The System on the (space, space) cell pattern restricted to
        `dofs` (ascending; all of them if None), then, with a `corner`,
        which comes with `dofs`, len(corner) dense border rows and columns;
        `static`, S's values on the cell pattern, and K's are gathered onto
        it by `take`, built once.

        S's border is zero but for its `corner`.  K's border comes as its
        columns X (rows in this system's order, the last len(corner) of them
        the corner): the border rows take -X^T and the corner X's entries
        above the diagonal, mirrored with a minus, so K is exactly skew.  The
        restriction keeps the cell pattern's CSR order, as `dofs` ascend,
        and each border entry is built after every entry left of it in its
        row, so one stable sort on the rows alone places the border.
        Without either the matrix is `static` on the cell pattern's own
        index arrays: no copy."""
        full = _pattern(space, space)
        if (dofs is None or len(dofs) == space.dim) and corner is None:
            return cls(name, full.matrix(static))
        rows = np.repeat(np.arange(space.dim), np.diff(full.indptr))
        where = np.full(space.dim, -1)
        where[dofs] = np.arange(len(dofs))
        keep = (where[rows] >= 0) & (where[full.indices] >= 0)
        rows, cols, src = where[rows[keep]], where[full.indices[keep]], np.flatnonzero(keep)
        m = len(dofs)
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
        matrix = sp.csr_matrix((static[src], cols.astype(np.int32), indptr), shape=(size, size))
        return cls(name, matrix, None if np.array_equal(src, np.arange(len(src))) else src)

    def sharing_factor(self, name, static, c):
        """The System `name` on this border-free system's restriction, its
        index arrays and take, with `static`, values on the cell pattern,
        near c S: refined against this system's factor as one of c S
        (linsolve.ScaledLU), so that it factors nothing of its own."""
        S = self.static
        data = static if self.take is None else static[self.take]
        return System(name, sp.csr_matrix((data, S.indices, S.indptr), shape=S.shape), self.take,
                      ScaledLU(self.lu, c))

    def skew_values(self, values, border, out):
        """K's CSR values on this pattern, written into `out`."""
        if border is not None:
            m = len(border) - border.shape[1]
            corner = np.triu(border[m:], 1)
            values = np.concatenate([values, border[:m].ravel(), -border[:m].ravel(),
                                     (corner - corner.T).ravel()])
        if self.take is None:
            np.copyto(out, values)
        else:
            np.take(values, self.take, out=out, mode="clip")  # in range: "raise" would buffer out
        return out

    def matrix(self, scale, values, border=None):
        """S + scale K, with K given as in skew_values: the system's own CSR
        matrix, its values refilled in place (K gathered, scaled, plus S),
        so that a step builds no matrix; the previous call's is overwritten."""
        data = self.skew_values(values, border, out=self._A.data)
        data *= scale
        data += self.static.data
        return self._A

    def solve(self, rhs, x0=None, scale=None, skew_values=None, border=None):
        """(x, report) of (S + scale K) x = rhs, refined against the system's factor from x0 if given."""
        A = self.static if skew_values is None else self.matrix(scale, skew_values, border)
        try:
            return lu_solve(A, rhs, self.lu, x0=x0)
        except SolverError as exc:
            raise SolverError(f"{self.name}: {exc}") from exc


class PressureTree:
    """D_r^T p = r, D_r the divergence D on the `free` RT dofs, solved for a
    right side r that is a discrete gradient, by local solves along a
    spanning tree of the cells: nothing is factored.

    D is metric-free, so each cell's block is one reference matrix B, the
    cell's RT signs on its columns.  A DG function is, per cell, a
    constant c plus a part whose values sum to 0, and the constant meets
    no RT interior dof and no edge moment but moment 0, the edge's flux.
    So the interior dofs fix the zero-sum part, by one inverse of
    [B_b^T; 1^T] per element (at N = 1 there are none and the part is 0).
    Moment 0 of an edge then fixes the jump of c across it: on each edge
    of a breadth-first tree of the cell graph from cell 0, c = c_parent +
    t / a, with t the residual of that equation without c and a the flux
    of the cell's constant through the edge.  The jumps are summed from
    the root by pointer jumping, about log2(depth) vectorized rounds
    m += m[anc], the ancestor arrays built once.  The other equations
    hold because r is a gradient: the caller checks them, and fixes the
    constant.  A cell graph in several pieces has a constant pressure per
    piece, which no tree fixes: it is refused."""

    def __init__(self, D_r, U, Q, free):
        from scipy.sparse import csgraph  # about 5 ms and 1 MB, which a run without snapshots never spends

        mesh = U.mesh
        C = mesh.num_cells
        B = _exact_zeros(_tensor(Q, U, (False, True)).reshape(Q.element.ndof, U.element.ndof).copy())
        row = np.full(U.dim, -1)  # each free RT dof's equation
        row[free] = np.arange(len(free))

        interior = U.element.interior_dofs
        self.local = np.linalg.inv(np.vstack([B[:, interior].T, np.ones(len(B))]))[:, :len(interior)].T
        self.interior = row[U.cell_dofs[:, interior]]

        inner = mesh.edge_cells[mesh.edge_cells[:, 1] >= 0]
        graph = sp.csr_matrix((np.ones(len(inner)), inner.T), shape=(C, C))
        order, parent = csgraph.breadth_first_order(graph, 0, directed=False)
        if len(order) < C:
            cut = np.setdiff1d(np.arange(C), order)[0]
            raise MeshError(f"the cell graph is not connected: no chain of interior edges joins "
                            f"cell {cut} to cell 0, so the pressure has a constant of its own there")
        # the local edge from each cell but the root to its parent
        ends = mesh.edge_cells[mesh.cell_edges]
        across = np.where(ends[..., 0] == np.arange(C)[:, None], ends[..., 1], ends[..., 0])
        child = order[1:]
        loc = np.argmax(across[child] == parent[child, None], axis=1)
        col = np.asarray(U.element.edge_dofs)[loc, 0]  # moment 0
        self.edge = np.zeros(C, dtype=np.int64)
        self.edge[child] = row[U.cell_dofs[child, col]]
        self.inverse_flux = np.zeros(C)
        self.inverse_flux[child] = 1.0 / (U.cell_dof_signs[child, col] * B.sum(axis=0)[col])
        anc = np.zeros(C, dtype=np.int64)
        anc[child] = parent[child]
        self.ancestors = []
        while anc.any():
            self.ancestors.append(anc)
            anc = anc[anc]

        self.D_r, self.q_dofs = D_r, Q.cell_dofs
        self.cell = np.empty(Q.dim, dtype=np.int64)  # each DG dof's cell
        self.cell[Q.cell_dofs] = np.arange(C)[:, None]

    def solve(self, r):
        """p with D_r^T p = r, if r is a discrete gradient, and 0 as cell 0's constant."""
        p = np.zeros(len(self.cell))
        p[self.q_dofs] = r[self.interior] @ self.local
        m = (r - self.D_r.T @ p)[self.edge] * self.inverse_flux
        for anc in self.ancestors:
            m += m[anc]
        p += m[self.cell]
        return p


def _wall(space, tag):
    """The owner cell of each edge of a wall, its local edge as a one-hot
    row (E, 3) and its tangent in the owner's orientation (E, 2)."""
    mesh = space.mesh
    edges = mesh.wall_edges(tag)
    cells, loc = mesh.edge_cells[edges, 0], mesh.edge_local[edges, 0]
    a, b = np.asarray(LOCAL_EDGES)[loc].T
    return cells, np.eye(3)[loc], mesh.cell_coords[cells, b] - mesh.cell_coords[cells, a]


def assemble_wall_mass(space, tag):
    """Boundary mass matrix <trial, test> over one tagged wall: the edge
    length against the owner's local edge's reference tensor."""
    cells, onehot, tang = _wall(space, tag)
    return _form(space, space, onehot * np.hypot(tang[:, 0], tang[:, 1])[:, None], cells=cells)


def assemble_particle_drift(u_s, U, W, bottom):
    """Static part of the particle transport operator: the skew convection
    u_s C(I e_g) by the settling drift, I e_g the gravity direction in U
    (spaces.constant_velocities: RT holds constants), plus the settling terms
    u_s (B_top + B_bottom) / 2 on the top and bottom walls, with `bottom`
    B_bottom = assemble_wall_mass(W, TAG_BOTTOM), which the caller also
    integrates over the bottom wall with.

    The transport operator is C(u) + this drift: the volume part is the
    skew part of <w_b, div(u_p w_a)> with u_p = u + u_s e_g, which is
    linear in u_p.  Both wall terms enter with +u_s/2 so that pairing
    against the constant test function reduces the operator to the
    bottom-wall settling outflux, which conserves particle mass.
    """
    B1 = assemble_wall_mass(W, TAG_TOP).data
    C = assemble_vorticity_convection(constant_velocities(U) @ GRAVITY, U, W)
    return _pattern(W, W).matrix(u_s * C + u_s * (0.5 * B1 + 0.5 * bottom.data))


def assemble_directional_gradient(W, v, transposed=False):
    """G[i, k] = <grad w_k . v, w_i> for a constant direction v, or, if
    `transposed`, G^T, the test side differentiated: det J J^-1 v against
    the reference gradients."""
    _, det, Jinv = W.mesh.jacobians()
    return _form(W, W, det[:, None] * (Jinv @ np.asarray(v, dtype=float)), (transposed, not transposed))


def assemble_baroclinic(W):
    """Cb[i, k] = <grad w_k x e_g, w_i>; the source c = Cb phi is
    <grad phi x e_g, w_i>, with e_g=(0,-1) this is -d(phi)/dx.
    grad w x e_g = grad w . e_g^perp, e_g^perp = (g_y, -g_x): the
    directional gradient along e_g^perp."""
    return assemble_directional_gradient(W, (GRAVITY[1], -GRAVITY[0]))


def assemble_vorticity_neumann(W):
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
        values += _form(W, W, coef, (False, True), cells).data
    Nn = pattern.matrix(values).copy()  # the pattern's arrays stay intact
    Nn.eliminate_zeros()
    return Nn
