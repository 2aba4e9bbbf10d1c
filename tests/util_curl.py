"""Shared test helpers: the exactly divergence-free velocity of a stream
function, and the weak curl integrated by quadrature.

The package forms the weak curl as M Z, the RT mass times the discrete
curl: the curl of a CG function lies in RT exactly.  weak_curl_matrix
integrates the same form <curl w_k, u_a> at quadrature points, as the
package once did, and is the oracle for M Z.
"""

import numpy as np

from dualflow import assemble
from dualflow.assemble import curl_matrix

from util_tabulate import volume_tab


def discrete_curl(psi, W, U):
    """Exact U (RT) coefficients of the vector curl (d/dy, -d/dx) of the W
    (CG) coefficients psi."""
    return curl_matrix(W, U) @ psi


def weak_curl(U, W):
    """The weak curl as the step forms it, M Z."""
    return assemble.assemble_mass(U) @ curl_matrix(W, U)


def weak_curl_matrix(U, W, qdegree):
    """Weak curl Lc[a, k] = <curl w_k, u_a>, curl w = (dw/dy, -dw/dx), by
    quadrature on the (U, W) cell pattern.

    Lc omega is the viscous vector l[a] = <curl omega, u_a> of the
    momentum step, and Lc^T u the right-hand side <u, curl w_k> of the
    weak curl recovery.
    """
    utab, wtab = volume_tab(U, qdegree), volume_tab(W, qdegree)
    curl = np.stack([wtab.grad[..., 1], -wtab.grad[..., 0]], axis=-1)
    local = np.einsum("cq,cqad,cqbd->cab", utab.weights, utab.val, curl)
    return assemble._pattern(U, W).build(local)
