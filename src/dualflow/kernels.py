"""Assembly kernels: quadrature, reference-tensor contraction and CSR
scatter, numpy only.

A static form is integrated by contracting the quadrature axis of every
cell at once with one batched ``np.matmul``: a local matrix is

    local[c, a, b] = sum_q wdet[c, q] * test[c, q, a] * trial[c, q, b]
                   = (wdet[c, :, None] * test[c])^T @ trial[c].

Shared reference tables of shape (nq, n) broadcast over the cells.  The
per-step rotation R(omega) and convection C(u) evaluate no field at
quadrature points: each is one GEMM of the cells' coefficients with a
metric-free reference tensor (elements.skew_tensors).  The kernels are
leaves: none calls another public kernel, so a tracer that wraps them
counts each contraction once.

Every kernel accumulates in a fixed order, so repeated runs are bitwise
identical at fixed BLAS threading.
"""

import numpy as np


def _pair(wdet, test, trial):
    return np.matmul(np.swapaxes(wdet[..., None] * test, -1, -2), trial)


def pairing(wdet, test, trial):
    """local[c,a,b] = sum_q wdet[c,q] test[c,q,a] trial[c,q,b] for scalar
    tables, each either per cell (C, nq, n) or shared (nq, n)."""
    return _pair(wdet, test, trial)


def pairing_vec(wdet, test, trial):
    """local[c,a,b] = sum_q wdet[c,q] test[c,q,a,:] . trial[c,q,b,:] for
    vector tables of shape (C, nq, n, 2)."""
    return _pair(wdet, test[..., 0], trial[..., 0]) + _pair(wdet, test[..., 1], trial[..., 1])


def skew_contraction(coef, tensor):
    """Local entries P[c, p] of the pairs a < b of exactly skew cell
    matrices, from the same entries of a reference tensor, tensor[k, p]:
    one (C, k) @ (k, p) GEMM P = coef @ tensor.  Entry (b, a) is -P."""
    return coef @ tensor


def scatter_matrix(pos, local, nnz):
    """The CSR value array: at each position, the sum of the `local` entries
    that `pos` sends there, accumulated in cell order."""
    return np.bincount(pos.ravel(), weights=local.ravel(), minlength=nnz)


def scatter_vector(out, dofs, local):
    """out[dofs] += local, accumulated in cell order."""
    out += np.bincount(dofs.ravel(), weights=local.ravel(), minlength=len(out))
