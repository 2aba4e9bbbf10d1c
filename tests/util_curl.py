"""Shared test helper: the exactly divergence-free velocity of a stream function."""

from dualflow.assemble import curl_matrix
from dualflow.spaces import Field


def discrete_curl(psi, rt_space):
    """Exact RT representation of the vector curl (d/dy, -d/dx) of a CG field."""
    return Field(rt_space, curl_matrix(psi.space, rt_space) @ psi.coefficients)
