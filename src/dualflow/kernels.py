"""Assembly kernels: batched-matmul quadrature and CSR scatter, numpy only.

A quadrature kernel contracts the quadrature axis of every cell at once
with one batched ``np.matmul``: a local matrix is

    local[c, a, b] = sum_q wdet[c, q] * test[c, q, a] * trial[c, q, b]
                   = (wdet[c, :, None] * test[c])^T @ trial[c],

and a field at the quadrature points is the tabulation times the cell's
coefficient vector.  Shared reference tables of shape (nq, n) broadcast
over the cells.  The kernels are leaves: none calls another public
kernel, so a tracer that wraps them counts each contraction once.

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


def rotation(wdet, wq, val):
    """R[c,a,b] = E - E^T with E[c,a,b] = sum_q w*omega val_y[a] val_x[b]:
    <omega x u_b, u_a>, exactly skew by construction."""
    E = _pair(wdet * wq, val[..., 1], val[..., 0])
    return E - np.swapaxes(E, 1, 2)


def convection(wdet, val, grad, uq, duq):
    """G[c,a,b] = sum_q w * val_b * (u . grad_a + div(u) val_a); a = test."""
    adv = grad[..., 0] * uq[..., 0, None] + grad[..., 1] * uq[..., 1, None] + duq[..., None] * val
    return _pair(wdet, adv, val)


def field_scalar(dofs, coef, val):
    """Scalar field at the quadrature points, (C, nq), from a shared table."""
    return coef[dofs] @ val.T


def field_vec(dofs, coef, val):
    """Vector (RT) field at the quadrature points, (C, nq, 2)."""
    c = coef[dofs][:, :, None]
    return np.concatenate([val[..., 0] @ c, val[..., 1] @ c], axis=-1)


def field_div(dofs, coef, div):
    """Divergence of an RT field at the quadrature points, (C, nq)."""
    return (div @ coef[dofs][:, :, None])[..., 0]


def scatter_matrix(data, pos, local):
    """data[pos] += local, accumulated in cell order."""
    data += np.bincount(pos.ravel(), weights=local.ravel(), minlength=len(data))


def scatter_vector(out, dofs, local):
    """out[dofs] += local, accumulated in cell order."""
    out += np.bincount(dofs.ravel(), weights=local.ravel(), minlength=len(out))
