"""Sparse linear algebra: direct LU with iterative refinement.

Every solve re-checks its own residual and reports it truthfully.  A
factorization of a matrix that does not change between steps is kept in
a CachedLU and reused.  Pressure-like vectors are defined up to a
constant and are reported with zero mean (project_out_constant).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

RTOL = 1e-10      # relative residual every solve must reach
MAX_REFINE = 2    # refinement passes allowed to reach it


class SolverError(RuntimeError):
    pass


@dataclass
class SolverReport:
    iterations: int
    residual: float
    reused_factorization: bool = False


class CachedLU:
    """LU factorization reusable across solves (matrix must not change)."""

    def __init__(self, matrix):
        self.matrix = matrix.tocsc()
        self._lu = spla.splu(self.matrix)

    def solve(self, rhs):
        return self._lu.solve(rhs)


def _residual_inf(A, x, b):
    return float(np.max(np.abs(A @ x - b))) if A.shape[0] else 0.0


def lu_solve(A, b, cached=None):
    """Direct solve of A x = b with iterative refinement.  With a CachedLU
    `cached`, A is None and the factor's own matrix is solved.

    Postcondition: ||Ax - b||_inf <= RTOL * (1 + ||b||_inf), or SolverError.
    """
    if cached is not None:
        if A is not None:
            raise SolverError("pass either a matrix or a cached factor, not both")
        A = cached.matrix
    else:
        A = A.tocsc()
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if A.shape[1] != n:
        raise SolverError(f"matrix is not square: {A.shape}")
    if b.shape != (n,):
        raise SolverError("rhs length does not match matrix")
    try:
        lu = cached if cached is not None else CachedLU(A)
    except RuntimeError as exc:
        raise SolverError(f"LU factorization failed: {exc}") from None
    x = lu.solve(b)
    target = RTOL * ((1.0 + float(np.max(np.abs(b)))) if n else 1.0)
    res = _residual_inf(A, x, b)
    refinements = 0
    while res > target and refinements < MAX_REFINE:
        x = x + lu.solve(b - (A @ x))
        res = _residual_inf(A, x, b)
        refinements += 1
    if not np.all(np.isfinite(x)):
        raise SolverError("singular system: LU produced non-finite values")
    if res > target:
        raise SolverError(f"LU residual {res:.3e} exceeds tolerance {target:.3e}")
    return x, SolverReport(iterations=0, residual=res, reused_factorization=cached is not None)


def project_out_constant(q, mass_q, ones_q, area):
    """Shift a pressure-like coefficient vector to zero mean."""
    mean = float(ones_q @ (mass_q @ q)) / area
    return q - mean * ones_q
