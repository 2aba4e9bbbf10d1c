"""Sparse linear algebra: LU factors with iterative refinement.

Every solve re-checks its own residual and reports it truthfully.  A
matrix that does not change between steps is factored once, in a
CachedLU.  A per-step system A, one CSR matrix that differs from a
static matrix S by a small term, is solved by refinement against the
factor of S: x = S^-1 b, then x += S^-1 (b - A x), one mat-vec with A
and one triangular solve per pass.  Refinement stops at the roundoff
floor: once ||b - A x||_inf <= eps (||S||_inf ||x||_inf + ||b||_inf), or
when a pass fails to halve the residual, or after MAX_REFINE passes;
against A's own factor it takes none.  If that misses the
postcondition, the same A is factored afresh and the report says so
(`fallback`).  Pressure-like vectors are defined up to a constant and
are reported with zero mean (project_out_constant).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

RTOL = 1e-10      # relative residual every solve must reach
MAX_REFINE = 8    # refinement passes per factor
EPS = np.finfo(float).eps


class SolverError(RuntimeError):
    pass


@dataclass
class SolverReport:
    refinements: int  # refinement passes taken after the first solve
    residual: float
    fallback: bool = False  # the given factor missed RTOL; A was factored afresh


class CachedLU:
    """LU factorization of a fixed matrix, reusable across solves, with the
    matrix and its inf-norm, which sets the roundoff floor of refinement.

    The fill-reducing ordering is minimum degree on A^T + A: every matrix
    factored here is structurally symmetric.
    """

    def __init__(self, matrix):
        self.matrix = matrix
        self.norm = float(abs(matrix).sum(axis=1).max()) if matrix.shape[0] else 0.0
        try:
            self._lu = spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SolverError(f"LU factorization failed: {exc}") from None

    def solve(self, rhs):
        return self._lu.solve(rhs)


def _inf(r):
    return float(abs(r).max()) if r.size else 0.0


def _refine(A, b, factor):
    """x = P^-1 b, then passes x += P^-1 (b - A x) until the residual is at
    the roundoff floor eps (||P|| ||x|| + ||b||), while each pass at least
    halves it; a pass that does not lower it is discarded.  Against A's own
    factor no pass is taken: LU's backward error has a growth constant
    that the floor leaves out.  Returns (x, passes, residual)."""
    x = factor.solve(b)
    r = b - A @ x
    res = _inf(r)
    passes = 0
    b_inf = _inf(b)
    while (A is not factor.matrix and res > EPS * (factor.norm * _inf(x) + b_inf)
           and passes < MAX_REFINE):
        x_new = x + factor.solve(r)
        r_new = b - A @ x_new
        res_new = _inf(r_new)
        passes += 1
        if not res_new < res:
            break
        halved = res_new <= 0.5 * res
        x, r, res = x_new, r_new, res_new
        if not halved:
            break
    return x, passes, res


def lu_solve(A, b, factor=None):
    """Solve A x = b by refinement against `factor`, a CachedLU of A or of
    a matrix near it; without one, A is factored here.

    Postcondition: ||Ax - b||_inf <= RTOL * (1 + ||b||_inf), or SolverError.
    A factor that misses it is replaced by a fresh factor of A, and the
    report has fallback=True.
    """
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if A.shape[1] != n:
        raise SolverError(f"matrix is not square: {A.shape}")
    if b.shape != (n,):
        raise SolverError("rhs length does not match matrix")
    target = RTOL * (1.0 + _inf(b))
    x, passes, res = _refine(A, b, factor) if factor is not None else (None, 0, np.inf)
    fallback = factor is not None and not res <= target
    if not res <= target:
        x, more, res = _refine(A, b, CachedLU(A))
        passes += more
    if not np.all(np.isfinite(x)):
        raise SolverError("singular system: LU produced non-finite values")
    if not res <= target:
        raise SolverError(f"LU residual {res:.3e} exceeds tolerance {target:.3e}")
    return x, SolverReport(refinements=passes, residual=res, fallback=fallback)


def project_out_constant(q, mass_q, ones_q, area):
    """Shift a pressure-like coefficient vector to zero mean."""
    mean = float(ones_q @ (mass_q @ q)) / area
    return q - mean * ones_q
