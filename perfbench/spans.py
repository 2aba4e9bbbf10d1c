"""In-memory span tracer that wraps dualflow's layer boundaries from outside.

`Tracer.install()` replaces the public functions of the dualflow modules
listed in LAYERS (except the entry points in ENTRY, which the benchmark
times itself), plus the class methods in METHODS, with wrappers that
record one span per call: name, layer, start, end, parent span and the
run phase ("setup" until the Engine exists, "steps" after).  It also
stands in for scipy.sparse.linalg inside `linsolve`, so `splu` and the
triangular solves of the factors it returns are spans of their own: the
library boundary.  `uninstall()` restores every original.  Nothing in
the package itself is edited.

`summarize()` turns the spans of one repetition into the per-layer
metrics named in BENCHMARK.json.
"""

import functools
import inspect
import os
import sys
import time

LAYERS = ("driver", "mesh", "stepper", "assemble", "kernels", "linsolve", "diagnostics", "io")

ENTRY = ("driver.run", "stepper.run")

METHODS = {
    "stepper": ("Model.__init__", "Model.curl_h", "Model.solve_transport",
                "Model.solve_vorticity", "Model.solve_momentum"),
    "linsolve": ("CachedLU.__init__", "CachedLU.solve"),
    "diagnostics": ("Engine.__init__", "Engine.restored", "Engine.update",
                    "FrontTracker.__init__", "FrontTracker.position"),
    "io": ("CsvWriter.__init__", "CsvWriter.write_row", "CsvWriter.close"),
}

# the scipy calls seen through the stand-in for scipy.sparse.linalg
LIB = "scipy"
SPLU = "splu"
TRI_SOLVE = "superlu_solve"


def _nbytes(result, args):
    return getattr(result, "nbytes", 0)


def _file_size(position):
    return lambda result, args: os.path.getsize(args[position])


MEASURES = {
    # value recorded per span, read after the call returns
    "linsolve.lu_solve": lambda result, args: result[1].residual,
    "linsolve.solve_saddle": lambda result, args: result[2].residual,
    "stepper.initialize": lambda result, args: result[1].iterations,
    "io.write_vtk": _file_size(1),
    "io.save_checkpoint": _file_size(0),
    f"{LIB}.{SPLU}": lambda result, args: result.nnz,
}

SCATTER = ("scatter_matrix", "scatter_vector")


class Tracer:
    """Collects spans for one traced repetition."""

    def __init__(self):
        # span: [name, layer, start, end, parent index, phase, value]
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._undo = []

    def call(self, layer, name, fn, args, kwargs, measure=None):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, layer, time.perf_counter(), None, parent, self.phase, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        if measure is not None:
            span[6] = measure(result, args)
        return result

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        if layer == "kernels" and name not in SCATTER:
            measure = _nbytes
        else:
            measure = MEASURES.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, name, fn, args, kwargs, measure)

        return traced

    def install(self):
        """Wrap every boundary; dualflow must already be imported."""
        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "dualflow" or n.startswith("dualflow."))]
        for layer in LAYERS:
            mod = sys.modules[f"dualflow.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or f"{layer}.{attr}" in ENTRY):
                    continue
                wrapped = self._wrap(layer, attr, fn)
                # rebind the name wherever a module imported it
                for other in package:
                    for oattr, oval in list(vars(other).items()):
                        if oval is fn:
                            self._set(other, oattr, wrapped)
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, qual, raw.__func__))
                else:
                    wrapped = self._wrap(layer, qual, raw)
                self._set(cls, meth, wrapped)
        linsolve = sys.modules["dualflow.linsolve"]
        self._set(linsolve, "spla", _LibraryBoundary(self, linsolve.spla))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


class _LibraryBoundary:
    """Stands in for scipy.sparse.linalg inside linsolve."""

    def __init__(self, tracer, spla):
        self._tracer = tracer
        self._spla = spla

    def __getattr__(self, name):
        return getattr(self._spla, name)

    def splu(self, *args, **kwargs):
        lu = self._tracer.call(LIB, SPLU, self._spla.splu, args, kwargs, MEASURES[f"{LIB}.{SPLU}"])
        return _TracedFactor(self._tracer, lu)


class _TracedFactor:
    """A SuperLU factor whose solve calls are spans."""

    def __init__(self, tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def __getattr__(self, name):
        return getattr(self._lu, name)

    def solve(self, *args, **kwargs):
        return self._tracer.call(LIB, TRI_SOLVE, self._lu.solve, args, kwargs)


# ---------------------------------------------------------------------------
# per-layer metrics

# which system a factorization belongs to: the nearest enclosing span
FACTOR_KIND = {
    "linsolve.solve_saddle": "saddle",
    "stepper.Model.solve_transport": "transport",
    "stepper.Model.solve_vorticity": "vorticity",
    "stepper.Model.curl_h": "curl",
    "stepper.Model.__init__": "curl",  # the cached weak-curl LU
}

SOURCES = ("assemble_buoyancy", "assemble_baroclinic", "assemble_curl_rhs", "assemble_vorticity_neumann")
CONVECTION = ("assemble_vorticity_convection", "assemble_particle_convection")

# metrics that must repeat exactly between repetitions of one input
EXACT = (
    "assemble.calls_per_step", "assemble.convection_calls_per_step",
    "kernels.local_mb_per_step",
    "linsolve.factorizations_per_step", "linsolve.triangular_solves_per_step",
    "linsolve.saddle_factor_nnz", "linsolve.transport_factor_nnz",
    "linsolve.vorticity_factor_nnz", "linsolve.curl_factor_nnz",
    "stepper.startup_iterations", "io.vtk_bytes", "io.checkpoint_bytes",
)


def _enclosing(spans, i, names):
    p = spans[i][4]
    while p >= 0:
        key = f"{spans[p][1]}.{spans[p][0]}"
        if key in names:
            return key
        p = spans[p][4]
    return None


def summarize(spans, steps, loop_s):
    """Per-layer metrics of one repetition that ran `steps` time steps,
    `loop_s` seconds of wall time after set-up.

    Times in the "steps" phase are totals divided by `steps` (ms per
    step); set-up times are means per call.  The `driver` layer's self
    time is the part of `loop_s` outside every top-level span.  A metric
    whose layer does not run on the workload reads 0.
    """
    child = [0.0] * len(spans)
    for name, layer, t0, t1, parent, phase, value in spans:
        if parent >= 0:
            child[parent] += t1 - t0

    step_total = {}   # key -> seconds in the steps phase
    step_calls = {}   # key -> calls in the steps phase
    setup_total = {}
    setup_calls = {}
    self_total = dict.fromkeys(LAYERS + (LIB,), 0.0)
    values = {}       # key -> list of measured values (all phases)
    nnz = {}
    for i, (name, layer, t0, t1, parent, phase, value) in enumerate(spans):
        key = f"{layer}.{name}"
        if phase == "steps":
            step_total[key] = step_total.get(key, 0.0) + (t1 - t0)
            step_calls[key] = step_calls.get(key, 0) + 1
            self_total[layer] += (t1 - t0) - child[i]
        else:
            setup_total[key] = setup_total.get(key, 0.0) + (t1 - t0)
            setup_calls[key] = setup_calls.get(key, 0) + 1
        if value is not None:
            values.setdefault(key, []).append(value)
        if key == f"{LIB}.{SPLU}":
            kind = FACTOR_KIND.get(_enclosing(spans, i, FACTOR_KIND), "other")
            nnz[kind] = max(nnz.get(kind, 0), value)

    def per_step(*keys):
        return 1e3 * sum(step_total.get(k, 0.0) for k in keys) / steps

    def count_per_step(*keys):
        return sum(step_calls.get(k, 0) for k in keys) / steps

    def per_setup(*keys, per=None):
        calls = sum(setup_calls.get(k, 0) for k in ((per,) if per else keys))
        return 1e3 * sum(setup_total.get(k, 0.0) for k in keys) / calls if calls else 0.0

    def mean_value(key):
        vals = values.get(key, [])
        return sum(vals) / len(vals) if vals else 0

    quadrature = [k for k in step_total if k.startswith("kernels.") and k[len("kernels."):] not in SCATTER]
    outermost_assemble = sum(
        1 for name, layer, t0, t1, parent, phase, value in spans
        if phase == "steps" and layer == "assemble" and (parent < 0 or spans[parent][1] != "assemble")
    )
    local_bytes = sum(
        value for name, layer, t0, t1, parent, phase, value in spans
        if phase == "steps" and layer == "kernels" and value
    )
    top_level = sum(t1 - t0 for name, layer, t0, t1, parent, phase, value in spans
                    if phase == "steps" and parent < 0)
    residuals = values.get("linsolve.lu_solve", []) + values.get("linsolve.solve_saddle", [])
    out = {
        "assemble.rotation_ms": per_step("assemble.assemble_rotation"),
        "assemble.vorticity_convection_ms": per_step("assemble.assemble_vorticity_convection"),
        "assemble.particle_convection_ms": per_step("assemble.assemble_particle_convection"),
        "assemble.sources_ms": per_step(*(f"assemble.{n}" for n in SOURCES)),
        "assemble.calls_per_step": outermost_assemble / steps,
        "assemble.convection_calls_per_step": count_per_step(*(f"assemble.{n}" for n in CONVECTION)),
        "assemble.self_ms": 1e3 * self_total["assemble"] / steps,
        "kernels.quadrature_ms": per_step(*quadrature),
        "kernels.scatter_ms": per_step(*(f"kernels.{n}" for n in SCATTER)),
        "kernels.local_mb_per_step": local_bytes / 1e6 / steps,
        "linsolve.saddle_ms": per_step("linsolve.solve_saddle"),
        "linsolve.lu_solve_ms": per_step("linsolve.lu_solve"),
        "linsolve.factor_ms": per_step(f"{LIB}.{SPLU}"),
        "linsolve.triangular_solve_ms": per_step(f"{LIB}.{TRI_SOLVE}"),
        "linsolve.factorizations_per_step": count_per_step(f"{LIB}.{SPLU}"),
        "linsolve.triangular_solves_per_step": count_per_step(f"{LIB}.{TRI_SOLVE}"),
        "linsolve.saddle_factor_nnz": nnz.get("saddle", 0),
        "linsolve.transport_factor_nnz": nnz.get("transport", 0),
        "linsolve.vorticity_factor_nnz": nnz.get("vorticity", 0),
        "linsolve.curl_factor_nnz": nnz.get("curl", 0),
        "linsolve.max_residual": max(residuals) if residuals else 0.0,
        "linsolve.self_ms": 1e3 * self_total["linsolve"] / steps,
        "stepper.step_ms": per_step("stepper.step"),
        "stepper.curl_h_ms": per_step("stepper.Model.curl_h"),
        "stepper.transport_ms": per_step("stepper.Model.solve_transport"),
        "stepper.vorticity_ms": per_step("stepper.Model.solve_vorticity"),
        "stepper.momentum_ms": per_step("stepper.Model.solve_momentum"),
        "stepper.self_ms": 1e3 * self_total["stepper"] / steps,
        "mesh.build_ms": per_setup("mesh.build_channel_mesh", "mesh.build_periodic_rect_mesh"),
        "stepper.model_init_ms": per_setup("stepper.Model.__init__"),
        "stepper.initialize_ms": per_setup("stepper.initialize"),
        "stepper.startup_iterations": mean_value("stepper.initialize"),
        "diagnostics.engine_init_ms": per_setup("diagnostics.Engine.__init__", "diagnostics.Engine.restored"),
        "diagnostics.engine_update_ms": per_step("diagnostics.Engine.update"),
        "diagnostics.self_ms": 1e3 * self_total["diagnostics"] / steps,
        "io.csv_row_ms": per_step("io.CsvWriter.write_row"),
        "io.vtk_ms": per_step("io.write_vtk"),
        "io.vtk_bytes": mean_value("io.write_vtk"),
        "io.checkpoint_save_ms": per_step("io.save_checkpoint"),
        "io.checkpoint_bytes": mean_value("io.save_checkpoint"),
        "io.checkpoint_load_ms": per_setup("io.load_checkpoint", "io.restore_state",
                                           per="io.load_checkpoint"),
        "io.self_ms": 1e3 * self_total["io"] / steps,
        "driver.self_ms": 1e3 * (loop_s - top_level) / steps,
    }
    return out
