"""Step-time benchmark for dualflow.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lock_desk --seed 1 --seconds 30 --trace 0

It imports dualflow from ./src, repeats the workload's fixed simulated
interval through `dualflow.driver.run` for --seconds seconds after one
untimed warm-up repetition, checks every output, and prints two JSON
lines: a detail record (environment, checks, sample counts) and, last,
the result {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 traced and
untraced repetitions alternate and the metrics are the per-layer ones
(spans.py), plus the tracing overhead.  Every time is scaled to a
reference host speed by the probe in pace.py.  See NOTES.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# BLAS threads are pinned before numpy is first imported
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
WORK_DIR = ROOT / ".perfbench_work"
# tail percentiles, highest first; the reported one has >= 10 timed steps beyond it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
TAIL_SAMPLES = 10
# a run times at least this many steps, so that the tail is p95 on every run
# (p99 would need 1000, more than any workload reaches in a run)
MIN_TIMED_STEPS = 200
MAX_FAILED_REPS = 3  # a run stops early once more repetitions than this have failed


def _import_program():
    """Import dualflow from this checkout's src/, or explain why not."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dualflow
    except ImportError as exc:
        raise SystemExit(f"error: cannot import dualflow from {src}: {exc}")
    if src not in Path(dualflow.__file__).resolve().parents:
        raise SystemExit(f"error: dualflow was imported from {dualflow.__file__}, not from {src}")
    if not (ROOT / "configs" / "lock_exchange.cfg").is_file():
        raise SystemExit(f"error: {ROOT / 'configs' / 'lock_exchange.cfg'} is missing")


def _git_sha():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = git / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def environment():
    import importlib.util
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def tail(step_ms):
    """(percentile, value): the highest listed percentile with >= 10 steps beyond it."""
    import numpy

    n = len(step_ms)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= TAIL_SAMPLES:
            return pct, float(numpy.percentile(step_ms, pct))
    return 50.0, float(numpy.percentile(step_ms, 50.0))


def end_to_end(reps, setup_reps, pace):
    """The end-to-end metrics at the reference speed, their sample counts,
    and the same medians in plain wall time.  `setup_reps` (one-step
    runs) add set-up samples only."""
    step_ms, setups, runs = [], [], []
    for r in reps:
        steps, rep_setups, run = r.scaled(pace)
        step_ms += [1e3 * s for s in steps]
        setups += rep_setups
        runs.append(run)
    for r in setup_reps:
        setups += r.scaled(pace)[1]
    pct, tail_ms = tail(step_ms)
    metrics = {
        "step_ms_p50": statistics.median(step_ms),
        "step_ms_tail": tail_ms,
        "run_s": statistics.median(runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"step_ms_p50": len(step_ms), "step_ms_tail": len(step_ms), "run_s": len(reps),
               "setup_s": len(setups), "peak_rss_mb": 1, "step_ms_tail_percentile": pct}
    wall = {
        "step_ms_p50": statistics.median(1e3 * s for r in reps for s in r.step_s),
        "run_s": statistics.median(sum(r.setup_s) + r.loop_s for r in reps),
        "setup_s": statistics.median(s for r in reps + setup_reps for s in r.setup_s),
    }
    return metrics, samples, wall


def per_layer(traced, untraced, exact_keys, pace):
    """Mean of the traced repetitions' metrics, and the exact counts that differ between them.

    Times (`*_ms`) are scaled to the reference speed by the median probe
    of their repetition."""
    mismatched = [k for k in exact_keys if len({r.layers[k] for r in traced}) > 1]
    for r in traced:
        speed = pace.speed(r.step_at)
        r.layers = {k: v * speed if k.endswith("_ms") else v for k, v in r.layers.items()}
    metrics = {k: statistics.fmean(r.layers[k] for r in traced) for k in traced[0].layers}
    traced_p50 = statistics.median(1e3 * s for r in traced for s in r.scaled(pace)[0])
    untraced_p50 = statistics.median(1e3 * s for r in untraced for s in r.scaled(pace)[0])
    metrics["bench.traced_step_ms_p50"] = traced_p50
    metrics["bench.trace_overhead_ms"] = traced_p50 - untraced_p50
    return metrics, mismatched


def measure(workload, runner, work, args, spans):
    """Warm up, then repeat the workload until --seconds have passed and
    enough has been timed; a traced run alternates traced and untraced
    repetitions, an untraced run follows each repetition with the
    workload's one-step set-up runs.  Returns (all, traced, untraced,
    set-up repetitions, seconds)."""
    reps = [workload.warmup(runner, work)]
    traced, untraced, setup_reps = [], [], []
    start = time.perf_counter()
    while True:
        if args.trace and len(reps) % 2 == 1:
            tracer = spans.Tracer()
            runner.tracer = tracer
            tracer.install()
            try:
                rep = workload.rep(runner, work)
            finally:
                tracer.uninstall()
                runner.tracer = None
            if not rep.failures:
                rep.layers = spans.summarize(tracer.spans, len(rep.step_s), rep.loop_s)
                traced.append(rep)
        else:
            rep = workload.rep(runner, work)
            if not rep.failures:
                untraced.append(rep)
            if not args.trace:
                for _ in range(workload.extra_setups):
                    setup_rep = workload.setup_rep(runner, work)
                    reps.append(setup_rep)
                    if not setup_rep.failures:
                        setup_reps.append(setup_rep)
        reps.append(rep)
        if sum(1 for r in reps if r.failures) > MAX_FAILED_REPS:
            break
        if time.perf_counter() - start < args.seconds:
            continue
        if args.trace and len(traced) >= 2 and untraced:
            break
        if not args.trace and sum(len(r.step_s) for r in untraced) >= MIN_TIMED_STEPS:
            break
    return reps, traced, untraced, setup_reps, time.perf_counter() - start


def main(argv=None):
    ap = argparse.ArgumentParser(description="dualflow step-time benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    import spans
    from pace import REF_MS, Pace
    from workloads import WORKLOADS, Checks, Runner

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    work = WORK_DIR / str(os.getpid())
    work.mkdir(parents=True)
    try:
        checks = Checks()
        pace = Pace()
        reps, traced, untraced, setup_reps, measured = measure(
            WORKLOADS[args.workload](str(ROOT), args.seed), Runner(checks, pace), work, args, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is still using it

    failed = sum(1 for r in reps if r.failures)
    problems = [f for r in reps for f in r.failures][:20]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "measured_s": measured, "environment": environment(),
        "checks": {k: {"evaluated": v[0], "failed": v[1]} for k, v in sorted(checks.counts.items())},
        "fail_ratio": failed / len(reps), "problems": problems,
        "pace": {"ref_ms": REF_MS, "probes": len(pace.times),
                 "probe_ms": [1e3 * q for q in statistics.quantiles(pace.times, n=4)]},
    }
    metrics, mismatched = {}, []
    if args.trace and traced and untraced:
        metrics, mismatched = per_layer(traced, untraced, spans.EXACT, pace)
        detail["repetitions"] = {"traced": len(traced), "untraced": len(untraced)}
        if mismatched:
            detail["problems"].append(f"exact counts differ between repetitions: {mismatched}")
    elif not args.trace and untraced:
        metrics, detail["samples"], detail["wall"] = end_to_end(untraced, setup_reps, pace)
    if metrics and set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match {SPEC.name}")
    correct = failed == 0 and not mismatched and bool(metrics)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": len(reps), "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
