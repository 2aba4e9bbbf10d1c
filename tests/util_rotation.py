"""The rotation R[i, j] = <omega x u_j, u_i> as a U x U matrix, and the
convection C as a W x W matrix, for tests that compare the package's
per-step forms with the matrices they stand for.

The package never forms R: the momentum step sees it through the
stream-function basis, Z^T R Z, and applies R u per cell
(assemble.assemble_rotation, assemble.apply_rotation).  R here scatters
the same cell matrices, S_c T(omega_c) S_c, each exactly skew, in cell
order, so R is exactly skew too.
"""

import numpy as np
import scipy.sparse as sp

from dualflow import assemble
from dualflow.elements import skew_tensors


def rotation_matrix(omega, U, qdegree):
    """R(omega) on U x U, exactly skew."""
    W = omega.space
    n, k = U.element.ndof, W.element.ndof
    T_R = skew_tensors(W.degree, U.degree, qdegree)[0].reshape(n, k, n)  # T(e_k)[a, b]
    s = U.cell_dof_signs
    local = np.einsum("ck,akb->cab", omega.coefficients[W.cell_dofs], T_R) * s[:, :, None] * s[:, None, :]
    return assemble._pattern(U, U).build(local)


def convection_matrix(u, W, qdegree):
    """C(u) on W x W from its CSR values (assemble_vorticity_convection)."""
    values = assemble.assemble_vorticity_convection(u, W, qdegree)
    return skew_part(assemble.SkewSystem(sp.csr_matrix((W.dim, W.dim)), W), values)


def momentum_skew(model, omega):
    """(values, border) of Z^T R Z as the momentum step assembles them: the
    CG block's values and, on the torus, the harmonic columns Z^T R H."""
    values = assemble.assemble_rotation(omega, model.U, model.qdeg)
    if model.harmonic is None:
        return values, None
    RH = np.column_stack([assemble.apply_rotation(omega, model.U, model.qdeg, h)
                          for h in model.harmonic.T])
    return values, model.Zt @ RH


def skew_part(system, values, border=None):
    """K alone on the pattern of a per-step system (assemble.SkewSystem)."""
    S = system.static
    return sp.csr_matrix((system.skew_values(values, border), S.indices, S.indptr), shape=S.shape)
