"""L2 projection of an analytic function onto a scalar space: the
package's load vector solved against a fresh factor of the mass matrix.
The package projects only the lock start, against a factor it owns."""

from dualflow.assemble import assemble_mass
from dualflow.linsolve import lu_solve
from dualflow.spaces import Field, load_vector


def project(space, fn, qdegree=None):
    qdegree = qdegree if qdegree is not None else 2 * max(space.degree, 1) + 2
    coef, _ = lu_solve(assemble_mass(space, qdegree), load_vector(space, fn, qdegree))
    return Field(space, coef)
