"""The names the step-time benchmark's tracer (perfbench/spans.py) wraps
and measures must exist in the package, and what its workloads
(perfbench/workloads.py) read of a run must still be there.

Both files are loaded read-only.  A deletion or rename that would break
a traced benchmark run (`perfbench/run.py --trace 1`), or a workload's
output checks, fails here instead.
"""

import copy
import importlib
import importlib.util
import inspect
import os

import numpy as np
import pytest
import scipy.sparse as sp

from dualflow import driver
from dualflow import io as dfio
from dualflow.config import parse_config
from dualflow.linsolve import CachedLU, lu_solve

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

TINY = """
[mesh]
length = 1.0
height = 1.0
nx = 4
ny = 4

[physics]
mode = homogeneous
nu = 0.01

[discretization]
degree = 1

[time]
dt = 1e-2
t_end = 2e-2

[output]
dir = {out}
"""


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return load_perfbench("spans")


def test_every_layer_is_a_module(spans):
    for layer in spans.LAYERS:
        importlib.import_module(f"dualflow.{layer}")


def test_every_traced_method_exists(spans):
    for layer, quals in spans.METHODS.items():
        module = importlib.import_module(f"dualflow.{layer}")
        for qual in quals:
            cls_name, meth = qual.split(".")
            assert meth in vars(getattr(module, cls_name)), f"dualflow.{layer}.{qual}"


def test_convection_metric_has_a_function_to_time(spans):
    """`assemble.vorticity_convection_ms` and the convection call count time
    the functions named in CONVECTION; a rename would read 0 silently."""
    from dualflow import assemble

    assert any(inspect.isfunction(getattr(assemble, name, None)) for name in spans.CONVECTION)
    assert inspect.isfunction(assemble.assemble_vorticity_convection)


def test_lu_solve_report_has_residual(spans):
    A = sp.identity(3, format="csr")
    b = np.array([1.0, 2.0, 3.0])
    result = lu_solve(A, b, CachedLU(A))
    assert spans.MEASURES["linsolve.lu_solve"](result, (A, b)) == 0.0


def test_vtk_measure_reads_the_written_file(spans, tmp_path, monkeypatch):
    """`io.vtk_bytes` is MEASURES["io.write_vtk"] applied to the arguments
    of each write_vtk call: it must read the size of the file written."""
    calls = []

    def recorded(*args, **kwargs):
        write_vtk(*args, **kwargs)
        calls.append(args)

    write_vtk = dfio.write_vtk
    monkeypatch.setattr(dfio, "write_vtk", recorded)
    driver.run(parse_config(TINY.format(out=tmp_path) + "vtk_every = 1\n"), collect_rows=False)
    assert len(calls) == 3  # steps 0, 1 and 2
    for k, args in enumerate(calls):
        path = os.path.join(tmp_path, f"snapshot_{k:08d}.vtk")
        assert spans.MEASURES["io.write_vtk"](None, args) == os.path.getsize(path) > 0


def test_run_entry_point_signature():
    params = inspect.signature(driver.run).parameters
    assert {"on_step", "collect_rows", "checkpoint"} <= set(params)


def test_traced_run_measures_startup_and_solves(spans, tmp_path):
    for layer in spans.LAYERS:
        importlib.import_module(f"dualflow.{layer}")
    tracer = spans.Tracer()
    tracer.install()
    try:
        driver.run(parse_config(TINY.format(out=tmp_path)), collect_rows=False)
    finally:
        tracer.uninstall()
    values = {}
    for name, layer, t0, t1, parent, phase, value in tracer.spans:
        values.setdefault(f"{layer}.{name}", []).append(value)
    [iterations] = values["stepper.initialize"]
    assert isinstance(iterations, int) and iterations >= 1
    assert all(r is not None and r >= 0.0 for r in values["linsolve.lu_solve"])
    assert "stepper.step" in values and "diagnostics.Engine.update" in values


def test_engine_set_up_fires_once_per_run(tmp_path, monkeypatch):
    """perfbench/workloads.py `Runner` subclasses driver.Engine and marks
    the end of set-up from `__init__` (fresh run) or `restored` (resume).
    Exactly one of the two must fire per driver.run, or set-up time is
    counted twice or not at all."""
    fired = []

    class ReadyEngine(driver.Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            fired.append("init")

        @classmethod
        def restored(cls, *args, **kwargs):
            engine = super().restored(*args, **kwargs)
            fired.append("restored")
            return engine

    monkeypatch.setattr(driver, "Engine", ReadyEngine)
    cfg = parse_config(TINY.format(out=tmp_path))
    driver.run(cfg, collect_rows=False)
    assert fired == ["init"]
    fired.clear()
    driver.run(cfg, collect_rows=False, checkpoint=str(tmp_path / "checkpoint_final.ckpt"))
    assert fired == ["restored"]


def test_periodic_drift_checks_read_the_state(tmp_path):
    """periodic_inviscid checks the inviscid drift of K, the enstrophy and
    the total vorticity of every row against model.kinetic_energy,
    enstrophy and total_vorticity of the step-0 state's u_half and
    omega: on a short run of its own configuration each check is
    evaluated on every row and none fails."""
    workloads = load_perfbench("workloads")
    workload = workloads.PeriodicInviscid(os.path.dirname(PERFBENCH), seed=1)
    cfg = copy.deepcopy(workload.config)
    cfg.time["t_end"] = 3 * cfg.time["dt"]
    cfg.output["dir"] = str(tmp_path)
    rows, first = [], []

    def on_step(prev, state, reports, row):
        rows.append(row)
        if prev.k == 0:
            first.append(prev)

    result = driver.run(cfg, on_step=on_step, collect_rows=False)
    checks, rep = workloads.Checks(), workloads.Rep()
    workload.extra_checks(checks, rep, result, rows, first[0])
    drift = ("kinetic_energy_drift", "enstrophy_drift", "vorticity_drift")
    assert len(rows) == 3
    assert {name: checks.counts.get(name) for name in drift} == {name: [3, 0] for name in drift}
    assert rep.failures == []
