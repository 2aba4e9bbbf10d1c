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
