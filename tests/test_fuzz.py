"""Seeded fuzz of the package's inputs: every mutated input is either
accepted or refused by the owner of the rule it breaks, with the error
that owner documents; no mutation ends in any other exception.

- Mesh files: token mutations of a small channel mesh in the import
  format, through `mesh.read_mesh_text` and then `stepper.Model` at
  degree 1.  Most change the token count and are refused by it; the
  swaps and replacements that keep it reach the geometry and the Model,
  and every mesh accepted tiles the channel.
- Run configurations: line mutations of a small channel and a small
  torus configuration, through `dualflow check`.  Each ends in exit 0,
  or in exit 1 with an `error:` line; a traceback fails.
"""

import collections
import random

import pytest

from dualflow import cli
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
        channel = GEOMETRY.length * GEOMETRY.height
        assert abs(mesh.total_area() - channel) <= 1e-9 * channel, mesh.total_area()
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


CHANNEL_CFG = """
[mesh]
length = 3.0
height = 1.0
lock_length = 1.0
nx = 3
ny = 2
pattern = left

[physics]
mode = turbidity
grashof = 5e6
schmidt = 1.0
settling_velocity = 0.02

[discretization]
degree = 1

[time]
dt = 1e-3
t_end = 2e-3

[initial]
kind = lock
interface_width = 0.1

[output]
dir = out
csv_every = 1
vtk_every = 1
checkpoint_every = 0
"""

TORUS_CFG = """
[mesh]
length = 6.283185307179586
height = 6.283185307179586
nx = 4
ny = 4
pattern = left

[physics]
mode = homogeneous
nu = 0.01

[discretization]
degree = 1

[time]
dt = 1e-2
t_end = 2e-2

[initial]
kind = random
seed = 3

[output]
csv_every = 1
"""

CONFIG_MUTANTS = 300  # per configuration: about 3 s in all
# replacement values: empty, not finite, past the floats, a signed zero,
# number spellings Python's int and float read differently, and the mode
# and kind names; the largest size, nx = 1_000, is a grid of a few
# thousand cells
VALUES = ("", "nan", "1e400", "-0.0", "0x10", "1_000",
          "turbidity", "homogeneous", "lock", "taylor_green", "random")


def mutate_config(rng, lines):
    """One deletion, duplication or swap of lines, or one value replaced
    from VALUES; and the op done."""
    lines = list(lines)
    op = rng.choice(("delete", "duplicate", "swap", "replace"))
    i, j = rng.sample(range(len(lines)), 2)
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        i = rng.choice([k for k, line in enumerate(lines) if "=" in line])
        lines[i] = f"{lines[i].partition('=')[0]}= {rng.choice(VALUES)}"
    return lines, (op, i, j)


@pytest.mark.parametrize("text", [CHANNEL_CFG, TORUS_CFG], ids=["channel", "torus"])
def test_mutated_config_checks_or_is_refused(text, tmp_path, capsys):
    lines = text.strip().splitlines()
    path = tmp_path / "run.cfg"

    def check(mutant):
        """(exit code, stderr) of `dualflow check` on the lines `mutant`."""
        path.write_text("\n".join(mutant) + "\n", encoding="utf-8")
        return cli.main(["check", "--config", str(path)]), capsys.readouterr().err

    assert check(lines) == (0, "")
    rng = random.Random(0)
    outcomes = collections.Counter()
    for n in range(CONFIG_MUTANTS):
        mutant, op = mutate_config(rng, lines)
        try:
            code, err = check(mutant)
        except Exception as exc:
            pytest.fail(f"mutant {n} {op}: {type(exc).__name__}: {exc}\n" + "\n".join(mutant))
        assert (code, err[:7]) in ((0, ""), (1, "error: ")), (n, op, code, err)
        outcomes[code] += 1
    assert outcomes[0] > 0 and outcomes[1] > 0, outcomes
