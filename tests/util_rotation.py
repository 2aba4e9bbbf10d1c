"""The rotation R[i, j] = <omega x u_j, u_i> as a U x U matrix, the
buoyancy B[i, k] = <w_k e_g, u_i> as a U x W matrix and the convection
C as a W x W matrix, for tests that compare the package's forms with
the matrices they stand for.

The package forms neither R nor B: the momentum step sees R through the
stream-function basis, Z^T R Z (assemble.assemble_rotation), and the
pressure applies R and B per cell (assemble.VelocityForms).  R here
scatters the same cell matrices, S_c T(omega_c) S_c, each exactly skew,
in cell order, so R is exactly skew too; B is the matrix the package
once assembled, on the (U, W) cell pattern.
"""

import numpy as np
import scipy.sparse as sp

from dualflow import assemble
from dualflow.elements import skew_tensors


def rotation_matrix(omega, W, U):
    """R(omega) on U x U for the W coefficients omega, exactly skew."""
    n, k = U.element.ndof, W.element.ndof
    T_R = skew_tensors(W.degree, U.degree)[0].reshape(n, k, n)  # T(e_k)[a, b]
    s = U.cell_dof_signs
    local = np.einsum("ck,akb->cab", omega[W.cell_dofs], T_R) * s[:, :, None] * s[:, None, :]
    return assemble._pattern(U, U).build(local)


def buoyancy_matrix(U, W):
    """B on U x W: e_g^T J against the reference tensor, RT signs applied."""
    return assemble._form(U, W, np.asarray(assemble.GRAVITY) @ U.mesh.jacobians()[0])


def convection_matrix(u, U, W):
    """C(u) on W x W for the U coefficients u, from its CSR values
    (assemble_vorticity_convection)."""
    return assemble._pattern(W, W).matrix(assemble.assemble_vorticity_convection(u, U, W))


def momentum_skew(model, omega):
    """(values, border) of Z^T R Z: the CG block's values as the momentum
    step assembles them and, on the torus, the harmonic columns Z^T R H
    with R applied per cell to each column of H, the oracle of the static
    border forms the step uses."""
    values = assemble.assemble_rotation(omega, model.W, model.U)
    if model.harmonic is None:
        return values, None
    RH = np.column_stack([model.velocity.apply(omega=omega, v=h) for h in model.harmonic.T])
    return values, model.Z.T @ RH


def skew_part(system, values, border=None):
    """K alone on the pattern of a per-step system (assemble.System)."""
    S = system.static
    return sp.csr_matrix((system.skew_values(values, border), S.indices, S.indptr), shape=S.shape)
