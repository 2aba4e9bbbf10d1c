"""Assembly kernels: reference-tensor contraction and CSR scatter, numpy
only.

On an affine cell every form the scheme assembles, static or per step,
is per-cell data contracted with a reference tensor (elements.form_tensor,
elements.skew_tensors): the local entries of all cells are one GEMM

    local[c, p] = sum_k coef[c, k] * tensor[k, p],

coef holding the cells' geometry or, for the per-step skew forms, their
field coefficients.  No form evaluates anything at quadrature points.
The kernels are leaves: none calls another public kernel, so a tracer
that wraps them counts each contraction once.

Every kernel accumulates in a fixed order, so repeated runs are bitwise
identical at fixed BLAS threading.
"""

import numpy as np


def contraction(coef, tensor):
    """Local entries P[c, p] of every cell from the same entries of a
    reference tensor, tensor[k, p]: one (C, k) @ (k, p) GEMM."""
    return coef @ tensor


def scatter_matrix(pos, local, nnz):
    """The CSR value array: at each position, the sum of the `local` entries
    that `pos` sends there, accumulated in cell order."""
    return np.bincount(pos.ravel(), weights=local.ravel(), minlength=nnz)
