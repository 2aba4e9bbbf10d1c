"""Sparse linear algebra: LU factors with iterative refinement.

Every solve re-checks its own residual and reports it truthfully.  A
matrix that does not change between steps is factored once, in a
CachedLU, without its exact zeros.  A per-step system A, one CSR matrix
that differs from a static matrix S by a small term (S kept on A's
pattern, zeros and all), is solved by refinement against the
factor of S: from a given start x0, or else from x = S^-1 b, passes
x += S^-1 (b - A x), one mat-vec with A and one triangular solve each.
A warm start from x0 saves the first triangular solve, and a closer x0
saves passes; a cold start takes refinements + 1 of them.  A factor of
N serves a matrix near c N too, seen through a ScaledLU as N^-1 / c: the
weak curl's mass N serves the vorticity system, near N/dt.  Each pass
cuts the residual by the contraction of I - S^-1 A, about 1/3700 for the
desk's transport and vorticity systems and 1/50000 for its momentum
system (of the order of 1/100 on the periodic box), so a start that
close to the solution takes one pass: the steps extrapolate theirs from
six earlier time levels.
Refinement stops at the roundoff floor: once ||b - A x||_inf <= eps
(||S||_inf ||x||_inf + ||b||_inf), or when a pass fails to halve the
residual, or after MAX_REFINE passes; against A's own factor it takes
none and starts cold.  If that misses the postcondition, the same A is
factored afresh and solved from scratch, and the report says so
(`fallback`).  Pressure-like vectors are defined up to a constant and
are reported with zero mean (project_out_constant).

SuperLU factors with a panel size and a supernode relaxation of one
column (PANEL_SIZE, RELAX): the CG systems of this 2-D scheme
make small supernodes, and SuperLU's default panels and relaxation,
several columns wide, suit larger ones.  L and U have the same entries
(the defaults' relaxed supernodes also store explicit zeros), a factor
takes about a third less time, and a triangular solve is no slower.
Factors are made on the calling thread: with scipy 1.17.1 on glibc
2.36, SuperLU storage made on one thread and freed on another is not
given back to the system, so factoring on a pool of threads would hold
on to memory.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

RTOL = 1e-10      # relative residual every solve must reach
MAX_REFINE = 8    # refinement passes per factor
PANEL_SIZE = 1    # SuperLU panel width, in columns
RELAX = 1         # SuperLU supernode relaxation, in columns
EPS = np.finfo(float).eps


class SolverError(RuntimeError):
    pass


@dataclass
class SolverReport:
    refinements: int  # refinement passes: the triangular solves, less one for a cold start
    residual: float
    fallback: bool = False  # the given factor missed RTOL; A was factored afresh


class CachedLU:
    """LU factorization of a fixed matrix, reusable across solves, with the
    matrix and its inf-norm, which sets the roundoff floor of refinement.

    The fill-reducing ordering is minimum degree on A^T + A: every matrix
    factored here is structurally symmetric.  Exact zeros are dropped
    first: a static part on a cell pattern has some (P1 curl-curl and P2
    mass forms on right triangles), and they would only add fill.
    SuperLU works in panels of PANEL_SIZE columns and relaxes supernodes
    of up to RELAX columns: the supernodes of these systems are small,
    and scipy's wider defaults take about half as long again for the
    same L and U.  Factored on the calling thread (see the module
    docstring).
    """

    def __init__(self, matrix):
        self.matrix = matrix
        self.norm = float(abs(matrix).sum(axis=1).max()) if matrix.shape[0] else 0.0
        csc = matrix.tocsc(copy=True)
        csc.eliminate_zeros()
        try:
            self._lu = spla.splu(csc, permc_spec="MMD_AT_PLUS_A", relax=RELAX, panel_size=PANEL_SIZE)
        except RuntimeError as exc:
            raise SolverError(f"LU factorization failed: {exc}") from None

    def solve(self, rhs):
        return self._lu.solve(rhs)


class ScaledLU:
    """A CachedLU of N seen as a factor of c N, c > 0, for a matrix near c N:
    solve(r) = N^-1 r / c, and the norm c ||N||_inf keeps the roundoff
    floor of refinement.  It is the exact factor of no matrix a solve is
    given (matrix is None), so every solve against it refines, and a miss
    falls back to a fresh factor as against any other."""

    matrix = None

    def __init__(self, lu, c):
        self.lu, self.c = lu, c
        self.norm = c * lu.norm

    def solve(self, rhs):
        return self.lu.solve(rhs) / self.c


def _inf(r):
    return float(abs(r).max()) if r.size else 0.0


def _refine(A, b, factor, x0=None):
    """x = x0, or x = P^-1 b without one, then passes x += P^-1 (b - A x)
    until the residual is at the roundoff floor eps (||P|| ||x|| + ||b||),
    while each pass at least halves it; a pass that does not lower it is
    discarded.  Against A's own factor no pass is taken, so x0 is ignored:
    LU's backward error has a growth constant that the floor leaves out.
    Returns (x, passes, residual)."""
    x = factor.solve(b) if x0 is None or A is factor.matrix else x0
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


def lu_solve(A, b, factor=None, x0=None):
    """Solve A x = b by refinement against `factor`, a CachedLU of A or of
    a matrix near it, starting from `x0` if given; without a factor, A is
    factored here.

    Postcondition: ||Ax - b||_inf <= RTOL * (1 + ||b||_inf), or SolverError.
    A factor that misses it is replaced by a fresh factor of A, solved
    from scratch, and the report has fallback=True.
    """
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if A.shape[1] != n:
        raise SolverError(f"matrix is not square: {A.shape}")
    if b.shape != (n,):
        raise SolverError("rhs length does not match matrix")
    if x0 is not None:
        x0 = np.array(x0, dtype=float)  # a copy: x may be returned as is
        if x0.shape != (n,):
            raise SolverError("starting vector length does not match matrix")
        if not np.all(np.isfinite(x0)):
            raise SolverError("starting vector has non-finite values")
    target = RTOL * (1.0 + _inf(b))
    x, passes, res = _refine(A, b, factor, x0) if factor is not None else (None, 0, np.inf)
    fallback = factor is not None and not res <= target
    if not res <= target:
        x, more, res = _refine(A, b, CachedLU(A))
        passes += more
    if not np.all(np.isfinite(x)):
        raise SolverError("singular system: LU produced non-finite values")
    if not res <= target:
        raise SolverError(f"LU residual {res:.3e} exceeds tolerance {target:.3e}")
    return x, SolverReport(refinements=passes, residual=res, fallback=fallback)


def project_out_constant(q, integrals, area):
    """Shift a pressure-like coefficient vector of a Lagrange-type space,
    whose constants are all ones, to zero mean: `integrals` holds
    <q_i, 1>, so the mean is one dot product."""
    return q - float(integrals @ q) / area
