"""Oracles for assemble._Pattern, assemble.System.on_cells and
assemble.assemble_div, each built another way: the CSR pattern of a pair
of dof maps from np.unique of the (row, column) keys, a system's pattern
by scipy slicing and sp.bmat, and the divergence summed on its (DG, RT)
cell pattern."""

import numpy as np
import scipy.sparse as sp

from dualflow import assemble


def divergence(U, Q):
    """D[q, u] = <div u, q> as a form summed on the (Q, U) cell pattern."""
    return assemble._form(Q, U, np.ones((U.mesh.num_cells, 1)), (False, True))


def cell_pattern(row_dofs, col_dofs, shape):
    """(pos, indices, indptr) of the (row_dofs, col_dofs) cell pattern."""
    C, na = row_dofs.shape
    nb = col_dofs.shape[1]
    rows = np.repeat(row_dofs, nb, axis=1).ravel()
    cols = np.tile(col_dofs, (1, na)).ravel()
    keys = rows.astype(np.int64) * shape[1] + cols
    uniq, inverse = np.unique(keys, return_inverse=True)
    indptr = np.zeros(shape[0] + 1, dtype=np.int32)
    np.cumsum(np.bincount(uniq // shape[1], minlength=shape[0]), out=indptr[1:])
    return inverse.reshape(C, na, nb), (uniq % shape[1]).astype(np.int32), indptr


def system_pattern(full, dim, static, dofs=None, corner=None):
    """(data, indices, indptr, take) of the static part of a System on the
    cell pattern `full` of a space of `dim` dofs, built by scipy: the CSR
    matrix of pattern positions plus 1 is sliced to `dofs`, and a border
    of `len(corner)` rows and columns, numbered on after the pattern as
    `System.on_cells` numbers K's border values, is added with sp.bmat.
    Its values minus 1 are `take`."""
    M = sp.csr_matrix((np.arange(1, full.nnz + 1), full.indices, full.indptr), shape=(dim, dim))
    if dofs is not None:
        M = M[dofs][:, dofs]
    if corner is not None:
        m, border = M.shape[0], len(corner)
        first = full.nnz + 1 + np.arange(3) * m * border  # X, -X^T, then the corner
        X = np.arange(m * border).reshape(m, border)
        M = sp.bmat([[M, sp.csr_matrix(first[0] + X)],
                     [sp.csr_matrix(first[1] + X.T), sp.csr_matrix(first[2] + X[:border])]], format="csr")
        M.sort_indices()
        static = np.concatenate([static, np.zeros(2 * m * border), np.ravel(corner)])
    take = M.data - 1
    return static[take], M.indices, M.indptr, None if np.array_equal(take, np.arange(M.nnz)) else take
