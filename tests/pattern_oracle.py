"""The sparsity patterns as first built, kept as oracles for
assemble._Pattern, assemble.System.on_cells and assemble.assemble_div:
the CSR pattern of a pair of dof maps from np.unique of the (row,
column) keys, a system's pattern from an np.lexsort of every entry,
border included, and the divergence summed on its (DG, RT) cell
pattern."""

import numpy as np

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
    cell pattern `full` of a space of `dim` dofs."""
    rows = np.repeat(np.arange(dim), np.diff(full.indptr))
    cols, src = full.indices, np.arange(full.nnz)
    if dofs is not None:
        where = np.full(dim, -1)
        where[dofs] = np.arange(len(dofs))
        keep = (where[rows] >= 0) & (where[cols] >= 0)
        rows, cols, src = where[rows[keep]], where[cols[keep]], src[keep]
    m = dim if dofs is None else len(dofs)
    border = 0 if corner is None else len(corner)
    size = m + border
    if border:
        r, j = np.divmod(np.arange(m * border), border)
        ci, cj = np.divmod(np.arange(border * border), border)
        rows = np.concatenate([rows, r, m + j, m + ci])
        cols = np.concatenate([cols, m + j, r, m + cj])
        src = np.concatenate([src, full.nnz + np.arange(2 * m * border + border * border)])
        static = np.concatenate([static, np.zeros(2 * m * border), np.ravel(corner)])
    order = np.lexsort((cols, rows))
    rows, cols, src = rows[order], cols[order], src[order]
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    take = None if np.array_equal(src, np.arange(len(src))) else src
    return static[src], cols.astype(np.int32), indptr, take
