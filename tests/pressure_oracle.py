"""The snapshot pressure by the pinned normal equations, kept as the
oracle for stepper.Model.pressure's solve on a spanning tree of cells.

D_r D_r^T annihilates the constant pressure, so dof 0 is pinned: rows
and columns 1: of D_r D_r^T p = D_r r are solved by one sparse LU, and
the constant is restored as zero mean (integrals: <q_i, 1>).
"""

import numpy as np

from dualflow.linsolve import lu_solve, project_out_constant


def pinned_pressure(D_r, r, integrals, area):
    """p with zero mean and D_r^T p = r in the least-squares sense, exactly
    when r is a discrete gradient."""
    P = D_r[1:]
    p = np.zeros(D_r.shape[0])
    p[1:], _ = lu_solve((P @ P.T).tocsr(), P @ r)
    return project_out_constant(p, integrals, area)
