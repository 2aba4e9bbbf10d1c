"""Sparse linear algebra: direct LU with iterative refinement.

Every solve re-checks its own residual and reports it truthfully.  A
factorization of a matrix that does not change between steps is kept in
a CachedLU and reused.  Pressure-like vectors are defined up to a
constant and are reported with zero mean (project_out_constant).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolverError(RuntimeError):
    pass


@dataclass
class SolverReport:
    iterations: int
    residual: float
    reused_factorization: bool = False


@dataclass
class LinearSystem:
    """A sparse system with optional constrained dofs."""

    matrix: sp.spmatrix
    rhs: np.ndarray
    constrained: tuple = None      # (indices, values)

    def __post_init__(self):
        self.rhs = np.asarray(self.rhs, dtype=float)
        n = self.matrix.shape[0]
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise SolverError(f"matrix is not square: {self.matrix.shape}")
        if self.rhs.shape != (n,):
            raise SolverError("rhs length does not match matrix")


def _split(system):
    n = system.matrix.shape[0]
    if system.constrained is None:
        return None
    idx, vals = system.constrained
    idx = np.asarray(idx, dtype=np.int64)
    vals = np.broadcast_to(np.asarray(vals, dtype=float), idx.shape)
    mask = np.ones(n, dtype=bool)
    mask[idx] = False
    free = np.flatnonzero(mask)
    return free, idx, vals


class CachedLU:
    """LU factorization reusable across solves (matrix must not change)."""

    def __init__(self, matrix):
        self.matrix = matrix.tocsc()
        self._lu = spla.splu(self.matrix)

    def solve(self, rhs):
        return self._lu.solve(rhs)


def _residual_inf(A, x, b):
    return float(np.max(np.abs(A @ x - b))) if A.shape[0] else 0.0


def lu_solve(system, rtol=1e-10, max_refine=2, cached=None):
    """Direct solve with constraint elimination and iterative refinement.

    Postcondition: ||Ax - b||_inf <= rtol * (1 + ||b||_inf) on the free
    block, or SolverError.
    """
    A, b = system.matrix.tocsr(), system.rhs
    split = _split(system)
    if split is None:
        br = b
        Ar = cached.matrix if cached is not None else A.tocsc()
    else:
        free, idx, vals = split
        Ar = A[free][:, free].tocsc()
        br = b[free] - A[free][:, idx] @ vals
    try:
        lu = cached if cached is not None else CachedLU(Ar)
    except RuntimeError as exc:
        raise SolverError(f"LU factorization failed: {exc}") from None
    xr = lu.solve(br)
    target = rtol * ((1.0 + float(np.max(np.abs(br)))) if len(br) else 1.0)
    res = _residual_inf(Ar, xr, br)
    refinements = 0
    while res > target and refinements < max_refine:
        xr = xr + lu.solve(br - (Ar @ xr))
        res = _residual_inf(Ar, xr, br)
        refinements += 1
    if not np.all(np.isfinite(xr)):
        raise SolverError("singular system: LU produced non-finite values")
    if res > target:
        raise SolverError(f"LU residual {res:.3e} exceeds tolerance {target:.3e}")
    if split is None:
        x = xr
    else:
        x = np.zeros(A.shape[0])
        x[free] = xr
        x[idx] = vals
    return x, SolverReport(iterations=0, residual=res, reused_factorization=cached is not None)


def project_out_constant(q, mass_q, ones_q, area):
    """Shift a pressure-like coefficient vector to zero mean."""
    mean = float(ones_q @ (mass_q @ q)) / area
    return q - mean * ones_q
