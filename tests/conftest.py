import os
import subprocess
import sys

import pytest

import dualflow

# The package the tests imported, and the source root it was imported from.
# Made absolute here: a relative PYTHONPATH entry such as `src` would resolve
# against the child's working directory, not against the repo root.
PACKAGE_FILE = os.path.abspath(dualflow.__file__)
SOURCE_ROOT = os.path.dirname(os.path.dirname(PACKAGE_FILE))

_child_package_file = None


def run_cli(args, cwd):
    """Run `python -m dualflow *args` in `cwd` against the package under test.

    The child inherits this process's environment, so BLAS/OpenMP thread
    settings match the in-process runs it is compared with, with
    SOURCE_ROOT prepended to PYTHONPATH.  The first call checks that the
    child imports the same `dualflow` as the tests and fails otherwise.
    """
    global _child_package_file
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SOURCE_ROOT + (os.pathsep + inherited if inherited else "")
    if _child_package_file is None:
        probe = subprocess.run(
            [sys.executable, "-c", "import dualflow; print(dualflow.__file__)"],
            capture_output=True, text=True, cwd=cwd, env=env,
        )
        if probe.returncode != 0:
            pytest.fail(f"child cannot import dualflow from {SOURCE_ROOT}:\n{probe.stderr}")
        _child_package_file = probe.stdout.strip()
    if os.path.realpath(_child_package_file) != os.path.realpath(PACKAGE_FILE):
        pytest.fail(
            f"child imports dualflow from {_child_package_file}, "
            f"but the tests imported {PACKAGE_FILE}"
        )
    return subprocess.run(
        [sys.executable, "-m", "dualflow", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


class AcceptanceLog:
    def __init__(self):
        self.entries = {}

    def start(self, number, description):
        self.entries[number] = [description, "FAIL"]

    def ok(self, number):
        self.entries[number][1] = "PASS"


_LOG = AcceptanceLog()


@pytest.fixture(scope="session")
def acceptance():
    return _LOG


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _LOG.entries:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_LOG.entries):
        desc, status = _LOG.entries[n]
        terminalreporter.write_line(f"criterion {n}: {status} - {desc}")


@pytest.fixture
def factorizations(monkeypatch):
    """Every sparse LU factor made from here to the end of the test, in order."""
    from dualflow import linsolve

    factors = []
    splu = linsolve.spla.splu

    def recorded(*args, **kwargs):
        factors.append(splu(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(linsolve.spla, "splu", recorded)
    return factors


@pytest.fixture
def channel_with_hole():
    """A 3x3 `left` channel on [-1, 2] x [0, 1.5] without the two cells of
    its middle quad, [0, 1] x [0.5, 1], assembled by `_finalize` with no
    wall tags.  No vertex is orphaned."""
    import numpy as np

    from dualflow.elements import LOCAL_EDGES
    from dualflow.mesh import ChannelGeometry, _finalize, build_channel_mesh

    full = build_channel_mesh(ChannelGeometry(length=3.0, height=1.5, lock_length=1.0), 3, 3, "left")
    centroid = full.cell_coords.mean(axis=1)
    keep = ~((np.abs(centroid[:, 0] - 0.5) < 0.5) & (np.abs(centroid[:, 1] - 0.75) < 0.25))
    cells = full.cells[keep]
    pairs = np.stack([np.sort(cells[:, [a, b]], axis=1) for a, b in LOCAL_EDGES], axis=1)
    return _finalize(full.vertices, cells, full.cell_coords[keep],
                     pairs[..., 0] * full.num_vertices + pairs[..., 1], periodic=False)
