"""The benchmark's workloads, each run through `dualflow.driver.run`.

A workload is a fixed simulated interval.  One repetition runs it as a
user would (`dualflow run`, or a chain of `dualflow resume` segments):
set-up, steps and output, in a fresh output directory.  `Runner`
timestamps each `driver.run` call from outside the package: set-up ends
when the budget Engine exists, each `on_step` callback closes one step,
and the return closes the final output.  Each of these intervals is
followed by a host-speed probe (pace.py) that lies outside every
interval.  The output checks run after a repetition's clock has stopped.

Why each workload exists is written up in NOTES.md.
"""

import copy
import ctypes
import ctypes.util
import gc
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from dualflow import driver
from dualflow.config import parse_config, parse_config_file
from dualflow.io import CheckpointError
from dualflow.linsolve import SolverError
from dualflow.stepper import StartupError

# acceptance bounds checked on every step
DIV_TOL = 1e-10
MASS_TOL = 1e-10
ERES_TOL = 1e-9
# criterion 4: inviscid drift of K and enstrophy (relative), total vorticity (absolute)
DRIFT_TOL = 1e-9
VORTICITY_TOL = 1e-11

FAILURES = (SolverError, StartupError, CheckpointError)
# lock_restart outputs that a chain of segments must reproduce byte for byte
COMPARED = ("timeseries.csv", "checkpoint_final.ckpt")


def _malloc_trim():
    """glibc's malloc_trim, or a no-op where the C library has none."""
    libc = ctypes.CDLL(ctypes.util.find_library("c"))
    trim = getattr(libc, "malloc_trim", None)
    return (lambda: trim(0)) if trim is not None else (lambda: None)


release_heap = _malloc_trim()


@dataclass
class Rep:
    """Measurements and check outcomes of one repetition."""

    # wall seconds of each interval, and the index of the probe that closed it
    setup_s: list = field(default_factory=list)  # one per driver.run call
    setup_at: list = field(default_factory=list)
    step_s: list = field(default_factory=list)   # one per time step
    step_at: list = field(default_factory=list)
    final_s: list = field(default_factory=list)  # last step to return, per driver.run call
    final_at: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    layers: dict = None                          # per-layer metrics of a traced repetition

    @property
    def loop_s(self):
        """Wall time after set-up, all segments, probes excluded."""
        return sum(self.step_s) + sum(self.final_s)

    def scaled(self, pace):
        """(step, set-up, run) seconds at the reference speed."""
        steps = [pace.scale(s, at) for s, at in zip(self.step_s, self.step_at)]
        setups = [pace.scale(s, at) for s, at in zip(self.setup_s, self.setup_at)]
        finals = [pace.scale(s, at) for s, at in zip(self.final_s, self.final_at)]
        return steps, setups, sum(setups) + sum(steps) + sum(finals)


class Checks:
    """Counts every output check evaluated and every one that failed."""

    def __init__(self):
        self.counts = {}

    def check(self, rep, name, ok, detail):
        tally = self.counts.setdefault(name, [0, 0])
        tally[0] += 1
        if not ok:
            tally[1] += 1
            rep.failures.append(f"{name}: {detail}")

    def rows(self, rep, rows):
        for row in rows:
            self.check(rep, "div_inf", row.div_inf <= DIV_TOL, f"step {row.step}: {row.div_inf:.3e}")
            self.check(rep, "mass_residual", abs(row.mass_residual) <= MASS_TOL,
                       f"step {row.step}: {row.mass_residual:.3e}")
            self.check(rep, "eres_gap", abs(row.eres_gap) <= ERES_TOL, f"step {row.step}: {row.eres_gap:.3e}")

    def csv_rows(self, rep, path, steps):
        with open(path, encoding="utf-8") as fh:
            lines = sum(1 for _ in fh)
        self.check(rep, "csv_rows", lines == steps + 1, f"{path} has {lines - 1} rows, expected {steps}")


class Runner:
    """Runs driver.run segments and timestamps them from outside.

    It replaces `driver.Engine` for the life of the process with a
    subclass that reports when it has been built.
    """

    def __init__(self, checks, pace):
        self.checks = checks
        self.pace = pace
        self.tracer = None
        self._setup_end = self._setup_probe = self._ready_at = None
        runner = self

        class ReadyEngine(driver.Engine):
            # the Engine is the last object driver.run builds before stepping
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runner._ready()

            @classmethod
            def restored(cls, *args, **kwargs):
                engine = super().restored(*args, **kwargs)
                runner._ready()
                return engine

        driver.Engine = ReadyEngine

    def _ready(self):
        self._setup_end = time.perf_counter()
        self._setup_probe = self.pace.probe()
        self._ready_at = time.perf_counter()
        if self.tracer is not None:
            self.tracer.phase = "steps"

    def segment(self, rep, cfg, checkpoint=None):
        """One driver.run call; returns (RunResult, rows, state at step 0 or None)."""
        rows = []
        first = []
        last = None

        def on_step(prev, state, audit, row):
            nonlocal last
            now = time.perf_counter()
            rep.step_s.append(now - (last or self._ready_at))
            rep.step_at.append(self.pace.probe())
            last = time.perf_counter()
            rows.append(row)
            if prev.k == 0:
                first.append(prev)

        # A user starts each run or resume in a fresh process.  The model of
        # the previous segment sits in reference cycles (spaces cache their
        # own patterns), so collect it now rather than at a random point
        # inside a timed segment, where it would also inflate peak memory.
        # Then hand the freed heap back to the OS, so that each segment's
        # peak starts from the same resident size.
        gc.collect()
        release_heap()
        self._setup_end = self._ready_at = None
        if self.tracer is not None:
            self.tracer.phase = "setup"
        t0 = time.perf_counter()
        result = driver.run(cfg, on_step=on_step, collect_rows=False, checkpoint=checkpoint)
        t1 = time.perf_counter()
        rep.final_s.append(t1 - (last or self._ready_at))
        rep.final_at.append(self.pace.probe())
        rep.setup_s.append(self._setup_end - t0)
        rep.setup_at.append(self._setup_probe)
        return result, rows, (first[0] if first else None)


def _with(cfg, out_dir, steps):
    cfg = copy.deepcopy(cfg)
    cfg.time["t_end"] = steps * cfg.time["dt"]
    cfg.output["dir"] = out_dir
    return cfg


class Workload:
    """A fixed simulated interval, repeated."""

    steps = 0          # time steps per repetition
    warmup_steps = 0
    extra_setups = 0   # one-step runs after each untraced repetition, for set-up samples

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed

    def lock_config(self):
        return parse_config_file(os.path.join(self.root, "configs", "lock_exchange.cfg"))

    def warmup(self, runner, work):
        """An untimed repetition that fills caches; its outputs are checked too."""
        return self._single(runner, work, self.warmup_steps)

    def rep(self, runner, work):
        return self._single(runner, work, self.steps)

    def setup_rep(self, runner, work):
        """A one-step run, whose set-up is one more `setup_s` sample."""
        return self._single(runner, work, 1)

    def _single(self, runner, work, steps):
        rep = Rep()
        out = tempfile.mkdtemp(dir=work)
        try:
            result, rows, state0 = runner.segment(rep, _with(self.config, out, steps))
        except FAILURES as exc:
            rep.failures.append(f"{type(exc).__name__}: {exc}")
            return rep
        runner.checks.rows(rep, rows)
        runner.checks.csv_rows(rep, result.csv_path, steps)
        self.extra_checks(runner.checks, rep, result, rows, state0)
        shutil.rmtree(out)
        return rep

    def extra_checks(self, checks, rep, result, rows, state0):
        """Workload-specific checks on a finished single-segment run."""


class LockDesk(Workload):
    """configs/lock_exchange.cfg as shipped, for 100 steps (one VTK interval)."""

    steps = 100
    warmup_steps = 10
    extra_setups = 2

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.config = self.lock_config()   # deterministic: the seed is not used


PERIODIC_CFG = """
[mesh]
length = 6.283185307179586
height = 6.283185307179586
nx = 32
ny = 32
pattern = left

[physics]
mode = homogeneous
nu = 0.0

[discretization]
degree = 1

[time]
dt = 1e-2
t_end = 1.0

[initial]
kind = random
seed = {seed}

[output]
csv_every = 1
"""


class PeriodicInviscid(Workload):
    """The two-solve conservative core on the periodic box, random solenoidal start."""

    steps = 100
    warmup_steps = 10
    extra_setups = 2

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.config = parse_config(PERIODIC_CFG.format(seed=seed))

    def extra_checks(self, checks, rep, result, rows, state0):
        model = result.model
        K0 = model.kinetic_energy(state0.u_half)
        ens0 = model.enstrophy(state0.omega)
        tv0 = model.total_vorticity(state0.omega)
        tv_scale = max(1.0, abs(tv0))
        for row in rows:
            checks.check(rep, "kinetic_energy_drift", abs(row.K - K0) <= DRIFT_TOL * K0,
                         f"step {row.step}: {abs(row.K - K0) / K0:.3e}")
            checks.check(rep, "enstrophy_drift", abs(row.enstrophy - ens0) <= DRIFT_TOL * ens0,
                         f"step {row.step}: {abs(row.enstrophy - ens0) / ens0:.3e}")
            checks.check(rep, "vorticity_drift", abs(row.total_vorticity - tv0) <= VORTICITY_TOL * tv_scale,
                         f"step {row.step}: {abs(row.total_vorticity - tv0):.3e}")


class LockRestart(Workload):
    """lock_desk physics as a chain of resumed segments, all outputs every step.

    The seed places the segment boundaries; the number of segments and
    steps is fixed, so every seed does the same work.
    """

    steps = 30
    segments = 6

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.config = self.lock_config()
        self.config.output.update(csv_every=1, vtk_every=1, checkpoint_every=1)
        cuts = random.Random(seed).sample(range(1, self.steps), self.segments - 1)
        self.ends = sorted(cuts) + [self.steps]
        self.reference = None

    def warmup(self, runner, work):
        return self._single(runner, work, self.steps)

    def extra_checks(self, checks, rep, result, rows, state0):
        # the uninterrupted warm-up run: every chain must reproduce its outputs byte for byte
        self.reference = _outputs(os.path.dirname(result.csv_path))

    def rep(self, runner, work):
        rep = Rep()
        out = tempfile.mkdtemp(dir=work)
        rows = []
        start = 0
        try:
            for end in self.ends:
                ckpt = os.path.join(out, f"checkpoint_{start:08d}.ckpt") if start else None
                _, seg_rows, _ = runner.segment(rep, _with(self.config, out, end), checkpoint=ckpt)
                rows.extend(seg_rows)
                start = end
        except FAILURES as exc:
            rep.failures.append(f"{type(exc).__name__}: {exc}")
            return rep
        runner.checks.rows(rep, rows)
        got = _outputs(out)
        for name in COMPARED:
            runner.checks.check(rep, f"resume_equals_uninterrupted:{name}",
                                self.reference is not None and got[name] == self.reference[name],
                                f"chained {name} differs from the uninterrupted run")
        shutil.rmtree(out)
        return rep


def _outputs(out):
    result = {}
    for name in COMPARED:
        with open(os.path.join(out, name), "rb") as fh:
            result[name] = fh.read()
    return result


WORKLOADS = {
    "lock_desk": LockDesk,
    "periodic_inviscid": PeriodicInviscid,
    "lock_restart": LockRestart,
}
