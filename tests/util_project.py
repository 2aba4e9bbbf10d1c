"""L2 projection of an analytic function onto a scalar space, as a
coefficient vector: the package's load vector, by the degree-2N+2 rule
of the lock start, solved against a fresh factor of the mass matrix.
The package projects only the lock start, against a factor it owns."""

from dualflow.assemble import assemble_mass
from dualflow.linsolve import lu_solve
from dualflow.spaces import load_vector


def project(space, fn):
    load = load_vector(space, fn, 2 * max(space.degree, 1) + 2)
    return lu_solve(assemble_mass(space), load)[0]
