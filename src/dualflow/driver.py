"""Run orchestration: configuration -> mesh -> model -> time loop -> outputs.

A run writes, under the configured output directory:
  timeseries.csv            one budget row per csv_every steps
  snapshot_XXXXXXXX.vtk     legacy-VTK field dumps every vtk_every steps,
                            snapshot 0 of a fresh run before step 1
  checkpoint_XXXXXXXX.ckpt  state dumps every checkpoint_every steps
  checkpoint_final.ckpt     always written on normal completion

A fresh run writes every file anew, the CSV too.  Resuming from a
checkpoint at step k into the same directory first cuts the CSV back to
its rows through step k, then appends to it, and reproduces the
uninterrupted run bitwise; a checkpoint past t_end is refused before
any output is touched.  Checkpoints are written atomically.
"""

import os
import time
from dataclasses import dataclass, field

from . import io as dfio
from .diagnostics import Engine
from .mesh import ChannelGeometry, build_channel_mesh, build_periodic_rect_mesh, read_mesh_text
from .stepper import Model, PhysicsConfig, TimeConfig, initial_condition, initialize, step


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


def _write_snapshot(model, outdir, state, psi_before, pressure, omega_tilde=None):
    """Write the snapshot of step k with its pressure and om~ = curl_h of the
    stream function the step started from (psi^{1/2} at k = 0), solved here
    unless the step solved it (step k's step 1, with particles); returns the
    fallbacks of the solve made here."""
    fallback = 0
    if omega_tilde is None:
        omega_tilde, rep = model.curl_h(psi_before)
        fallback = rep.fallback
    dfio.write_vtk(model, os.path.join(outdir, f"snapshot_{state.k:08d}.vtk"), state, pressure, omega_tilde)
    return fallback


def run(cfg, on_step=None, log=None, collect_rows=True, checkpoint=None):
    """Execute a configured run (or resume one from `checkpoint`).  After
    each step, on_step(prev, state, reports, row) gets the two states, the
    step's solver reports by name and its ledger row."""
    model = build_model(cfg)
    out = cfg.output
    outdir = out["dir"]
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, "timeseries.csv")
    if out["vtk_every"] > 0:
        model.pressure_tree  # built in set-up, so that no snapshot step pays for it

    if checkpoint is not None:
        data = dfio.load_checkpoint(checkpoint)
        state = dfio.restore_state(data, model)
        if state.k > model.time.num_steps:  # refused before any output is touched
            raise dfio.CheckpointError(
                f"{checkpoint} is at step {state.k}, past t_end = {model.time.t_end:g} "
                f"({model.time.num_steps} steps): there is nothing to resume")
        dfio.truncate_csv_for_resume(csv_path, state.k, out["csv_every"])
        engine = Engine.restored(model, data["scalars"])
        startup = None
        _maybe(log, f"resumed from {checkpoint} at step {state.k}")
    else:
        state, startup = initialize(model, initial_condition(cfg.initial))
        engine = Engine(model, state)
        _maybe(log, f"startup converged in {startup.iterations} iterations "
                    f"(last update {startup.update:.3e})")

    result = RunResult(model=model, state=state, startup=startup, csv_path=csv_path, engine=engine)
    nsteps = model.time.num_steps
    # solves that missed the tolerance against their static factor (linsolve.lu_solve)
    fallbacks = startup.fallbacks if startup is not None else 0
    max_mass = max_gap = 0.0  # running maxima of the per-step identity gaps
    mark, mark_k = time.perf_counter(), state.k  # wall clock at the last progress line
    passes = 0  # refinement passes of the steps since the last progress line
    if startup is not None and out["vtk_every"] > 0:
        fallbacks += _write_snapshot(model, outdir, state, state.psi_0, startup.pressure())
    writer = dfio.CsvWriter(csv_path, append=checkpoint is not None)
    try:
        while state.k < nsteps:
            prev = state
            state, reports, omega_tilde = step(state, model)
            fallbacks += sum(rep.fallback for rep in reports.values())
            passes += sum(rep.refinements for rep in reports.values())
            row = engine.update(prev, state)
            max_mass = max(max_mass, abs(row.mass_residual))
            max_gap = max(max_gap, abs(row.eres_gap))
            if on_step is not None:
                on_step(prev, state, reports, row)
            if collect_rows:
                result.rows.append(row)
            if state.k % out["csv_every"] == 0:
                writer.write_row(row)
            if out["vtk_every"] > 0 and state.k % out["vtk_every"] == 0:
                p = model.pressure(state.omega, prev.u_half, state.u_half, model.time.dt, phi=state.phi)
                fallbacks += _write_snapshot(model, outdir, state, prev.psi_0, p, omega_tilde)
            if out["checkpoint_every"] > 0 and state.k % out["checkpoint_every"] == 0:
                dfio.save_checkpoint(
                    os.path.join(outdir, f"checkpoint_{state.k:08d}.ckpt"), state, engine, model
                )
            if log is not None and (state.k % max(1, nsteps // 10) == 0 or state.k == nsteps):
                now = time.perf_counter()
                steps = state.k - mark_k
                ms, per_step = 1e3 * (now - mark) / steps, passes / steps
                mark, mark_k, passes = now, state.k, 0
                _maybe(log, f"step {state.k}/{nsteps}  t={row.t:.6g}  K={row.K:.6e}  "
                            f"div={row.div_inf:.2e}  max|mass_residual|={max_mass:.2e}  "
                            f"max|eres_gap|={max_gap:.2e}  ms/step={ms:.3g}  "
                            f"passes/step={per_step:.3g}  fallbacks={fallbacks}")
    finally:
        writer.close()
    result.state = state
    dfio.save_checkpoint(os.path.join(outdir, "checkpoint_final.ckpt"), state, engine, model)
    return result
