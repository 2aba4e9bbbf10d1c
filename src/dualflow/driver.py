"""Run orchestration: configuration -> mesh -> model -> time loop -> outputs.

A run writes, under the configured output directory:
  timeseries.csv            one budget row per csv_every steps (append-only)
  snapshot_XXXXXXXX.vtk     legacy-VTK field dumps every vtk_every steps
  checkpoint_XXXXXXXX.ckpt  state dumps every checkpoint_every steps
  checkpoint_final.ckpt     always written on normal completion

Resuming from a checkpoint at step k into the same directory first cuts
the CSV back to its rows through step k, then appends to it, and
reproduces the uninterrupted run bitwise.  Checkpoints are written
atomically.
"""

import os
import time
from dataclasses import dataclass, field

from . import io as dfio
from .diagnostics import Engine
from .mesh import ChannelGeometry, build_channel_mesh, build_periodic_rect_mesh, read_mesh_text
from .stepper import (
    LockInitialCondition,
    Model,
    PhysicsConfig,
    RandomSolenoidalInitialCondition,
    TaylorGreenInitialCondition,
    TimeConfig,
    initialize,
    step,
)


def build_mesh(cfg):
    m = cfg.mesh
    if cfg.physics["mode"] == "homogeneous":
        return build_periodic_rect_mesh(m["length"], m["height"], m["nx"], m["ny"], m["pattern"])
    geom = ChannelGeometry(length=m["length"], height=m["height"], lock_length=m["lock_length"])
    if m["import"]:
        with open(m["import"], "r", encoding="utf-8") as fh:
            return read_mesh_text(fh.read(), geom)
    return build_channel_mesh(geom, m["nx"], m["ny"], m["pattern"])


def build_model(cfg):
    mesh = build_mesh(cfg)
    return Model(mesh, cfg.discretization["degree"], PhysicsConfig(**cfg.physics), TimeConfig(**cfg.time))


def make_initial_condition(cfg):
    kind = cfg.initial["kind"]
    if kind == "lock":
        return LockInitialCondition(interface_width=cfg.initial["interface_width"])
    if kind == "taylor_green":
        return TaylorGreenInitialCondition()
    return RandomSolenoidalInitialCondition(seed=cfg.initial["seed"])


@dataclass
class RunResult:
    model: object
    state: object
    rows: list = field(default_factory=list)
    startup: object = None
    csv_path: str = None
    engine: object = None


def _maybe(log, msg):
    if log is not None:
        log(msg)


def run(cfg, on_step=None, log=None, collect_rows=True, checkpoint=None):
    """Execute a configured run (or resume one from `checkpoint`)."""
    model = build_model(cfg)
    out = cfg.output
    outdir = out["dir"]
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, "timeseries.csv")

    if checkpoint is not None:
        data = dfio.load_checkpoint(checkpoint)
        state = dfio.restore_state(data, model)
        dfio.truncate_csv_for_resume(csv_path, state.k, out["csv_every"])
        engine = Engine.restored(model, data["scalars"])
        startup = None
        _maybe(log, f"resumed from {checkpoint} at step {state.k}")
    else:
        state, startup = initialize(model, make_initial_condition(cfg))
        engine = Engine(model, state)
        _maybe(log, f"startup converged in {startup.iterations} iterations "
                    f"(last update {startup.update:.3e})")

    result = RunResult(model=model, state=state, startup=startup, csv_path=csv_path, engine=engine)
    nsteps = model.time.num_steps
    # solves that missed the tolerance against their static factor (linsolve.lu_solve)
    fallbacks = startup.fallbacks if startup is not None else 0
    max_mass = max_gap = 0.0  # running maxima of the per-step identity gaps
    mark, mark_k = time.perf_counter(), state.k  # wall clock at the last progress line
    writer = dfio.CsvWriter(csv_path)
    try:
        if state.k == 0 and out["vtk_every"] > 0:
            dfio.write_vtk(state, os.path.join(outdir, "snapshot_00000000.vtk"))
        while state.k < nsteps:
            prev = state
            state, audit = step(state, model)
            fallbacks += sum(rep.fallback for rep in audit.reports.values())
            row = engine.update(prev, state, audit)
            max_mass = max(max_mass, abs(row.mass_residual))
            max_gap = max(max_gap, abs(row.eres_gap))
            if on_step is not None:
                on_step(prev, state, audit, row)
            if collect_rows:
                result.rows.append(row)
            if state.k % out["csv_every"] == 0:
                writer.write_row(row)
            if out["vtk_every"] > 0 and state.k % out["vtk_every"] == 0:
                dfio.write_vtk(state, os.path.join(outdir, f"snapshot_{state.k:08d}.vtk"))
            if out["checkpoint_every"] > 0 and state.k % out["checkpoint_every"] == 0:
                dfio.save_checkpoint(
                    os.path.join(outdir, f"checkpoint_{state.k:08d}.ckpt"), state, engine, model
                )
            if log is not None and (state.k % max(1, nsteps // 10) == 0 or state.k == nsteps):
                now = time.perf_counter()
                ms = 1e3 * (now - mark) / (state.k - mark_k)
                mark, mark_k = now, state.k
                _maybe(log, f"step {state.k}/{nsteps}  t={row.t:.6g}  K={row.K:.6e}  "
                            f"div={row.div_inf:.2e}  max|mass_residual|={max_mass:.2e}  "
                            f"max|eres_gap|={max_gap:.2e}  ms/step={ms:.3g}  fallbacks={fallbacks}")
    finally:
        writer.close()
    result.state = state
    dfio.save_checkpoint(os.path.join(outdir, "checkpoint_final.ckpt"), state, engine, model)
    return result
