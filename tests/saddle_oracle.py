"""The velocity/pressure saddle solve, kept as the oracle for the
stream-function momentum step.

Solves [[A, -D^T], [D, 0]] (u, p) = (f, 0) with zero-mean pressure,
either with one sparse LU on the whole block system (pressure dof 0
pinned) or, for small problems, with a dense Schur complement.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dualflow.linsolve import SolverError, SolverReport, project_out_constant


def solve_saddle(A, D, f, mass_q, ones_q, area, rtol=1e-10, strategy="lu", max_refine=2):
    """A must have an SPD symmetric part and D full row rank up to the
    constant pressure mode, which is removed by pinning dof 0 and
    restored as a zero-mean pressure."""
    nu, npr = A.shape[0], D.shape[0]
    refinements = 0
    if strategy == "lu":
        D2 = D.tocsr(copy=True)
        pin = sp.csr_matrix((np.ones(1), (np.zeros(1, dtype=int), np.zeros(1, dtype=int))), shape=(npr, npr))
        D2.data[D2.indptr[0]:D2.indptr[1]] = 0.0  # row 0 replaced by the pin
        K = sp.bmat([[A, -D.T], [D2, pin]], format="csc")
        rhs = np.concatenate([f, np.zeros(npr)])
        lu = spla.splu(K)
        x = lu.solve(rhs)
        target = rtol * (1.0 + float(np.max(np.abs(rhs))))
        for _ in range(max_refine):
            if float(np.max(np.abs(K @ x - rhs))) <= target:
                break
            x = x + lu.solve(rhs - K @ x)
            refinements += 1
        u, p = x[:nu], x[nu:]
    elif strategy == "schur":
        if nu + npr > 4000:
            raise SolverError("schur strategy is a dense cross-check; system too large")
        Ad = A.toarray()
        Dd = D.toarray()
        AinvDt = np.linalg.solve(Ad, Dd.T)
        Ainvf = np.linalg.solve(Ad, f)
        S = Dd @ AinvDt
        g = -(Dd @ Ainvf)
        S[0, :] = 0.0
        S[0, 0] = 1.0
        g[0] = 0.0
        p = np.linalg.solve(S, g)
        u = Ainvf + AinvDt @ p
    else:
        raise ValueError(f"unknown saddle strategy {strategy!r}")

    p = project_out_constant(p, mass_q, ones_q, area)
    res_mom = float(np.max(np.abs(A @ u - D.T @ p - f))) if nu else 0.0
    res_div = float(np.max(np.abs(D @ u))) if npr else 0.0
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(p))):
        raise SolverError("saddle solve produced non-finite values")
    return u, p, SolverReport(refinements=refinements, residual=max(res_mom, res_div))
