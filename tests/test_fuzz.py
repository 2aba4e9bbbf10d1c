"""Seeded fuzz of the package's inputs: every mutated input is either
accepted or refused by the owner of the rule it breaks, with the error
that owner documents; no mutation ends in any other exception.

- Mesh files: token mutations of a small channel mesh in the import
  format, through `mesh.read_mesh_text` and then `stepper.Model` at
  degree 1.  Most change the token count and are refused by it; the
  swaps and replacements that keep it reach the geometry and the Model.
"""

import collections
import random

import pytest

from dualflow.mesh import ChannelGeometry, MeshError, build_channel_mesh, read_mesh_text
from dualflow.stepper import Model, PhysicsConfig, TimeConfig

GEOMETRY = ChannelGeometry(length=3.0, height=1.0, lock_length=1.0)
MUTANTS = 1500  # per seed: about 0.2 s
# replacement tokens: counts and indices near the mesh's own, coordinates
# on and off the walls, and what is no number; none is a count large
# enough to allocate
ALPHABET = ("0", "1", "2", "3", "-1", "11", "12", "13", "23", "24", "0.5", "-0.0", "1.0000000001",
            "1e-300", "1e300", "nan", "inf", "-inf", "0x10", "1_0", "x", "1.5.2", "3.0")


def channel_tokens():
    """The tokens of a 3 x 2 two-triangle channel in the import format: the
    header 'V E C', the vertex coordinates, the cells' vertex ids."""
    mesh = build_channel_mesh(GEOMETRY, 3, 2, "left")
    return ([str(mesh.num_vertices), str(mesh.num_edges), str(mesh.num_cells)]
            + [repr(float(x)) for x in mesh.vertices.ravel()]
            + [str(int(v)) for v in mesh.cells.ravel()])


def mutate(rng, tokens):
    """1 to 3 random deletions, duplications, swaps or replacements of
    tokens, and the ops done."""
    tokens, ops = list(tokens), []
    for _ in range(rng.randint(1, 3)):
        op, i, j = rng.choice(("delete", "duplicate", "swap", "replace")), *rng.sample(range(len(tokens)), 2)
        if op == "delete":
            del tokens[i]
        elif op == "duplicate":
            tokens.insert(i, tokens[i])
        elif op == "swap":
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[i] = rng.choice(ALPHABET)
        ops.append((op, i, j))
    return tokens, ops


def build(text):
    """'model' for a text that builds a Model, else the refusal's kind."""
    try:
        mesh = read_mesh_text(text, GEOMETRY)
        Model(mesh, 1, PhysicsConfig(), TimeConfig(dt=1e-3, t_end=1e-3))
    except MeshError:
        return "MeshError"
    except ValueError as exc:
        # Model's own refusals: the stream-function basis misses a
        # divergence-free velocity, or has none
        assert "stream-function basis" in str(exc), str(exc)
        return "stream basis"
    return "model"


@pytest.mark.parametrize("seed", [0, 1])
def test_mutated_mesh_file_builds_or_is_refused(seed):
    rng = random.Random(seed)
    tokens = channel_tokens()
    assert build(" ".join(tokens)) == "model"
    outcomes = collections.Counter()
    for n in range(MUTANTS):
        mutant, ops = mutate(rng, tokens)
        text = "\n".join(mutant)
        try:
            outcomes[build(text)] += 1
        except Exception as exc:
            pytest.fail(f"mutant {n} {ops}: {type(exc).__name__}: {exc}\n{text}")
    assert outcomes["model"] > 0 and outcomes["MeshError"] > 0, outcomes
