"""Quadrature rules on the reference triangle and the unit interval.

Triangle rules are built from a Duffy (collapsed-coordinate) map of a
Gauss-Legendre x Gauss-Jacobi tensor grid, which gives positive weights
and exactness for any requested polynomial degree.  The reference
triangle has vertices (0,0), (1,0), (0,1) and area 1/2.
"""

import numpy as np
from scipy.special import roots_jacobi, roots_legendre


def interval_rule(degree):
    """Gauss-Legendre rule on [0,1] exact for polynomials of the given degree."""
    n = (degree + 2) // 2  # ceil((degree+1)/2)
    x, w = roots_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


def triangle_rule(degree):
    """Points (n, 2) and weights (n,) of a rule on the reference triangle
    exact for total degree <= degree.

    Uses the map (u,v) -> (u(1-v), v) from the unit square; the Jacobian
    factor (1-v) is absorbed into a Gauss-Jacobi rule in v.
    """
    xu, wu = interval_rule(degree)
    # Gauss-Jacobi with weight (1-x) on [-1,1]; mapped to (1-v) dv on [0,1].
    xv, wv = roots_jacobi(len(xu), 1.0, 0.0)
    xv = 0.5 * (xv + 1.0)
    wv = 0.25 * wv

    uu, vv = np.meshgrid(xu, xv, indexing="ij")
    pts = np.column_stack([(uu * (1.0 - vv)).ravel(), vv.ravel()])
    wts = np.outer(wu, wv).ravel()
    return pts, wts
