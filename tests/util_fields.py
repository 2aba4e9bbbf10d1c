"""Fields at the quadrature points of a space's volume tabulation, for
tests that compare a discrete field with an analytic one pointwise."""

import numpy as np


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
