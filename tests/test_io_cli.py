import dataclasses
import itertools
import os
import re

import numpy as np
import pytest

from dualflow import cli, stepper
from dualflow import io as dfio
from dualflow.config import parse_config
from dualflow.driver import build_model, run
from dualflow.diagnostics import AUDIT_FIELDS, CSV_COLUMNS, Engine, LedgerRow
from dualflow.linsolve import SolverError
from dualflow.mesh import QUAD_TRIANGLES
from dualflow.stepper import LockInitialCondition, SimulationState, initialize, step

from conftest import run_cli
from util_vtk import read_vtk

LEVELS = stepper.LEVELS


def lock_cfg_text(outdir, t_end=0.003, nx=13, ny=2, degree=1, extra=""):
    return f"""
[mesh]
length = 13.0
height = 1.0
lock_length = 1.0
nx = {nx}
ny = {ny}

[physics]
mode = turbidity
grashof = 5e6
settling_velocity = 0.02

[discretization]
degree = {degree}

[time]
dt = 1e-3
t_end = {t_end}

[output]
dir = {outdir}
{extra}
"""


def test_run_single_step_csv(tmp_path):
    out = tmp_path / "o"
    cfg = parse_config(lock_cfg_text(out, t_end=1e-3))
    run(cfg)
    lines = (out / "timeseries.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2  # header + exactly one data row


def test_csv_schema_is_the_ledger_row():
    """The CSV holds every ledger field that is not an audit field, in the
    row's order, so that a new field cannot miss the file or the header
    check of a resume; every audit field is a field of the row."""
    names = [f.name for f in dataclasses.fields(LedgerRow)]
    assert set(AUDIT_FIELDS) <= set(names)
    assert list(CSV_COLUMNS) == [name for name in names if name not in AUDIT_FIELDS]


def test_csv_roundtrip_exact(tmp_path):
    out = tmp_path / "o"
    cfg = parse_config(lock_cfg_text(out, t_end=0.003))
    result = run(cfg)
    data = dfio.read_csv(str(out / "timeseries.csv"))
    assert len(data["step"]) == 3
    # shortest round-trip formatting: text -> float recovers exact values
    for row, K in zip(result.rows, data["K"]):
        assert row.K == K


def test_fresh_run_writes_the_csv_anew(tmp_path):
    """A run without a checkpoint writes its CSV from the header, as it
    writes its snapshots and final checkpoint anew: two fresh runs into one
    directory leave the bytes of one."""
    cfg = parse_config(lock_cfg_text(tmp_path / "o"))
    run(cfg, collect_rows=False)
    once = (tmp_path / "o" / "timeseries.csv").read_bytes()
    run(cfg, collect_rows=False)
    assert (tmp_path / "o" / "timeseries.csv").read_bytes() == once


def test_vtk_zero_state(tmp_path):
    cfg = parse_config(lock_cfg_text(tmp_path / "o"))
    model = build_model(cfg)
    state = SimulationState(
        k=0,
        u_half=np.zeros(model.U.dim),
        omega=np.zeros(model.W.dim),
        phi=np.zeros(model.W.dim),
    )
    path = tmp_path / "snap.vtk"
    dfio.write_vtk(model, str(path), state, np.zeros(model.Q.dim), np.zeros(model.W.dim))
    data = read_vtk(path)
    nv, nc = model.mesh.num_vertices, model.mesh.num_cells
    assert f"POINTS {nv} double" in data["lines"]
    assert f"CELLS {nc} {4 * nc}" in data["lines"]
    assert np.array_equal(data["CELL_TYPES"], np.full(nc, 5))  # linear triangles
    assert np.array_equal(data["CELLS"], np.c_[np.full(nc, 3), model.mesh.render_cells])
    assert np.array_equal(data["phi"], np.zeros(nv))


def test_vtk_lock_profile_at_t0(tmp_path):
    out = tmp_path / "o"
    cfg = parse_config(lock_cfg_text(out, t_end=1e-3, nx=52, ny=4, extra="vtk_every = 1"))
    run(cfg)
    path = out / "snapshot_00000000.vtk"
    assert path.exists()
    model = build_model(cfg)
    mesh = model.mesh
    vals = read_vtk(path)["phi"]
    assert len(vals) == mesh.num_vertices
    delta = 2 * mesh.h_min()
    left = vals[mesh.vertices[:, 0] < -3 * delta]
    right = vals[mesh.vertices[:, 0] > 3 * delta]
    assert np.all(np.abs(left - 1.0) < 0.05)
    assert np.all(np.abs(right) < 0.05)


TORUS_CFG = """
[mesh]
length = 1.0
height = 1.0
nx = 4
ny = 4

[physics]
mode = homogeneous
nu = 0.01

[discretization]
degree = {degree}

[initial]
kind = random

[time]
dt = 1e-2
t_end = 3e-2

[output]
dir = {out}
vtk_every = 1
"""


def test_homogeneous_vtk_writes_weak_curl_of_the_previous_velocity(tmp_path):
    """Without particles too, the snapshot of step k >= 1 carries the weak
    curl of psi^{k-1/2}, the stream function of the velocity the step
    started from; snapshot 0 that of psi^{1/2}."""
    out = tmp_path / "o"
    before = {}
    result = run(parse_config(TORUS_CFG.format(out=out, degree=1)),
                 on_step=lambda prev, state, reports, row: before.update({state.k: prev.psi_0}))
    model = result.model
    before[0] = before[1]  # u^{1/2}, the start of step 1
    vmap = model.mesh.render_vertex_map  # a torus is drawn with its seams doubled
    for k, psi in sorted(before.items()):
        written = read_vtk(out / f"snapshot_{k:08d}.vtk")["omega_tilde"]
        assert np.count_nonzero(written) == len(vmap)
        assert np.array_equal(written, model.curl_h(psi)[0][vmap]), k


def test_snapshot_step_reuses_the_weak_curl_of_its_step(tmp_path, monkeypatch):
    """With particles a step solves om~ = curl_h psi^{k+1/2} as its step 1,
    and the snapshot of the step writes that om~; snapshot 0 solves its
    own, curl_h psi^{1/2}: a run with a snapshot every step solves curl_h
    once per step, once for snapshot 0, once for omega^0 and once per
    startup pass after the first, and each snapshot carries the weak curl
    of the stream function its step started from, bit for bit."""
    out = tmp_path / "o"
    calls = []
    curl_h = stepper.Model.curl_h

    def counted(model, psi):
        calls.append(psi)
        return curl_h(model, psi)

    monkeypatch.setattr(stepper.Model, "curl_h", counted)
    before = {}
    result = run(parse_config(lock_cfg_text(out, t_end=0.003, degree=2, extra="vtk_every = 1")),
                 on_step=lambda prev, state, reports, row: before.update({state.k: prev.psi_0}))
    monkeypatch.undo()
    assert len(calls) == 1 + (result.startup.iterations - 1) + 1 + 3
    vmap = result.model.mesh.render_vertex_map
    for k, psi in sorted(before.items()):
        written = read_vtk(out / f"snapshot_{k:08d}.vtk")["omega_tilde"]
        assert np.array_equal(written, result.model.curl_h(psi)[0][vmap]), k


@pytest.mark.parametrize("text", [lock_cfg_text("o", degree=2), TORUS_CFG.format(out="o", degree=2)],
                         ids=["channel", "torus"])
def test_vtk_round_trip_is_lossless(tmp_path, text):
    """Every array of a snapshot reads back bitwise: the points are the
    render vertices at z = 0, the point scalars the CG vertex dofs, the
    pressure its cell means and the velocity its centroid values."""
    model = build_model(parse_config(text))
    mesh, U = model.mesh, model.U
    rng = np.random.default_rng(7)
    fields = {name: rng.standard_normal(model.W.dim)
              for name in ("phi", "omega", "omega_tilde")}
    if model.physics.mode == "homogeneous":
        fields["phi"] = None
    u = rng.standard_normal(U.dim)
    p = rng.standard_normal(model.Q.dim)
    state = SimulationState(k=0, u_half=u, omega=fields["omega"], phi=fields["phi"])
    path = tmp_path / "snap.vtk"
    dfio.write_vtk(model, str(path), state, p, fields["omega_tilde"])
    data = read_vtk(path)
    nv, nc = len(mesh.render_vertices), len(mesh.render_cells)
    assert data["lines"] == [
        "# vtk DataFile Version 3.0",
        "dualflow snapshot (velocity as centroid averages; see package docs)",
        "BINARY", "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv} double", f"CELLS {nc} {4 * nc}", f"CELL_TYPES {nc}", f"POINT_DATA {nv}",
        "SCALARS phi double 1", "LOOKUP_TABLE default",
        "SCALARS omega double 1", "LOOKUP_TABLE default",
        "SCALARS omega_tilde double 1", "LOOKUP_TABLE default",
        f"CELL_DATA {nc}", "SCALARS pressure double 1", "LOOKUP_TABLE default",
        "VECTORS velocity double",
    ]
    assert np.array_equal(data["POINTS"], np.c_[mesh.render_vertices, np.zeros(nv)])
    assert np.array_equal(data["CELLS"], np.c_[np.full(nc, 3), mesh.render_cells])
    assert np.array_equal(data["CELL_TYPES"], np.full(nc, 5))
    for name, fld in fields.items():
        expected = np.zeros(nv) if fld is None else fld[mesh.render_vertex_map]
        assert np.array_equal(data[name], expected), name
    assert np.array_equal(data["pressure"], p[model.Q.cell_dofs].mean(axis=1))
    J, det, _ = mesh.jacobians()
    rval, _ = U.element.tabulate(np.array([[1.0 / 3.0, 1.0 / 3.0]]))
    ref = (U.cell_dof_signs * u[U.cell_dofs]) @ rval[0]
    centroid = (J @ ref[:, :, None])[..., 0] / det[:, None]
    assert np.array_equal(data["velocity"], np.c_[centroid, np.zeros(nc)])


def test_snapshots_bitwise_across_runs_and_resume(tmp_path):
    """Two runs, and a run cut at step 3 then resumed from its checkpoint
    into the same directory, write byte-equal snapshots at every step."""
    def run_into(name, t_end, checkpoint=None):
        extra = "vtk_every = 1\ncheckpoint_every = 1"
        run(parse_config(lock_cfg_text(tmp_path / name, t_end=t_end, degree=2, extra=extra)),
            collect_rows=False, checkpoint=checkpoint)
        return tmp_path / name

    first, second = run_into("a", 0.006), run_into("b", 0.006)
    run_into("c", 0.003)
    resumed = run_into("c", 0.006, checkpoint=str(tmp_path / "c" / "checkpoint_00000003.ckpt"))
    names = [f"snapshot_{k:08d}.vtk" for k in range(7)]
    for out in (first, second, resumed):
        assert sorted(p.name for p in out.glob("snapshot_*.vtk")) == names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes() == (resumed / name).read_bytes(), name


@pytest.mark.parametrize("mode", ["turbidity", "homogeneous"])
def test_resume_from_every_step_bitwise(tmp_path, mode):
    """A resume from the checkpoint of any step, each of the first steps
    with less history and one with the full history among them,
    reproduces the uninterrupted run's CSV and final checkpoint byte for
    byte."""
    def text(out, steps):
        if mode == "turbidity":
            return lock_cfg_text(out, t_end=steps * 1e-3, extra="checkpoint_every = 1")
        return (TORUS_CFG.format(out=out, degree=2).replace("vtk_every = 1", "checkpoint_every = 1")
                .replace("t_end = 3e-2", f"t_end = {steps}e-2"))

    last = stepper.LEVELS + 2
    run(parse_config(text(tmp_path / "a", last)), collect_rows=False)
    for k in range(1, last):
        out = tmp_path / f"r{k}"
        run(parse_config(text(out, k)), collect_rows=False)
        run(parse_config(text(out, last)), collect_rows=False,
            checkpoint=str(out / f"checkpoint_{k:08d}.ckpt"))
        for name in ("timeseries.csv", "checkpoint_final.ckpt"):
            assert (out / name).read_bytes() == (tmp_path / "a" / name).read_bytes(), (k, name)


def test_resume_past_t_end_refused_leaving_outputs_unchanged(tmp_path):
    """A resume from a checkpoint past t_end takes no step and is refused,
    naming the step and t_end, before it cuts the CSV or writes a
    checkpoint: every output file is byte-unchanged."""
    out = tmp_path / "o"
    text = TORUS_CFG.format(out=out, degree=1).replace("vtk_every = 1", "checkpoint_every = 5")
    run(parse_config(text.replace("t_end = 3e-2", "t_end = 10e-2")), collect_rows=False)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert {"timeseries.csv", "checkpoint_00000005.ckpt", "checkpoint_final.ckpt"} <= set(before)
    with pytest.raises(dfio.CheckpointError, match=r"at step 5, past t_end = 0\.03 \(3 steps\)"):
        run(parse_config(text), checkpoint=str(out / "checkpoint_00000005.ckpt"))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_checkpoint_roundtrip_bitwise(tmp_path):
    """LEVELS steps in, a state holds every earlier level its starts read,
    and each field comes back bit for bit."""
    cfg = parse_config(lock_cfg_text(tmp_path / "o"))
    model = build_model(cfg)
    state, _ = initialize(model, LockInitialCondition())
    eng = Engine(model, state)
    for _ in range(stepper.LEVELS):
        state, _, _ = step(state, model)
    path = str(tmp_path / "c.ckpt")
    dfio.save_checkpoint(path, state, eng, model)
    data = dfio.load_checkpoint(path)
    restored = dfio.restore_state(data, model)
    assert restored.k == state.k
    assert list(data["fields"]) == [f.name for f in dataclasses.fields(SimulationState)][2:]
    for name in ("u_half", "omega", "phi"):
        assert np.array_equal(getattr(state, name), getattr(restored, name)), name
    assert np.array_equal(state.psi_0, restored.psi_0)
    for name in ("phi_past", "omega_past", "psi_past"):
        a, b = getattr(state, name), getattr(restored, name)
        assert len(a) == len(b) == stepper.LEVELS and all(map(np.array_equal, a, b)), name
    assert data["scalars"]["m_p0"] == eng.m_p0


def test_state_is_what_a_checkpoint_holds(tmp_path):
    """SimulationState holds, besides its step k and u_half = Z psi_0,
    exactly the vectors() a checkpoint saves, each earlier-levels stack
    x_past as one vector, newest level first, and every other field the
    state's own array; stepper.restore takes them back bit for bit, u_half
    as Z psi_0, each field a float64 array of its space's dimension."""
    model = build_model(parse_config(lock_cfg_text(tmp_path / "o")))
    rng = np.random.default_rng(2)
    n_w, n_psi = model.W.dim, model.Z.shape[1]
    psi_0 = rng.standard_normal(n_psi)
    state = SimulationState(
        k=LEVELS + 1, u_half=model.Z @ psi_0, psi_0=psi_0,
        omega=rng.standard_normal(n_w), phi=rng.standard_normal(n_w),
        phi_past=tuple(rng.standard_normal((LEVELS, n_w))),
        omega_past=tuple(rng.standard_normal((LEVELS, len(model.iw)))),
        psi_past=tuple(rng.standard_normal((LEVELS, n_psi))))
    names = [f.name for f in dataclasses.fields(SimulationState)]
    vectors = state.vectors()
    assert names[:2] == ["k", "u_half"] and list(vectors) == names[2:]
    assert all(vectors[name] is getattr(state, name) for name in ("omega", "phi", "psi_0"))
    restored = stepper.restore(model, state.k, vectors)
    for name in names[1:]:
        a, b = getattr(state, name), getattr(restored, name)
        if name.endswith("_past"):
            assert np.array_equal(vectors[name], np.concatenate(a))
            assert len(b) == LEVELS and all(map(np.array_equal, a, b)), name
        else:
            assert np.array_equal(a, b), name
    for name, space in (("u_half", model.U), ("omega", model.W), ("phi", model.W)):
        x = getattr(restored, name)
        assert type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (space.dim,), name


@pytest.mark.parametrize("version", [
    2,  # also held the pressure and the weak curl
    3,  # held no history for the starts
    4,  # its stream functions began a step later (none at step 0)
    5,  # held two earlier levels of each field where a state now holds LEVELS
    6,  # also held u_half
    7,  # held each earlier level as a vector of its own, and a discretization digest
])
def test_older_checkpoint_version_refused(tmp_path, monkeypatch, version):
    """A checkpoint of an earlier version is refused by its version line,
    with a message that names the version and the path."""
    cfg = parse_config(lock_cfg_text(tmp_path / "o"))
    model = build_model(cfg)
    state, _ = initialize(model, LockInitialCondition())
    eng = Engine(model, state)
    state, _, _ = step(state, model)
    path = tmp_path / f"v{version}.ckpt"
    monkeypatch.setattr(dfio, "CHECKPOINT_VERSION", version)
    dfio.save_checkpoint(str(path), state, eng, model)
    monkeypatch.undo()
    assert path.read_bytes().startswith(f"DUALFLOW-CKPT {version}\n".encode())
    with pytest.raises(dfio.CheckpointError, match=f"version line 'DUALFLOW-CKPT {version}'") as exc:
        dfio.load_checkpoint(str(path))
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("mode", ["turbidity", "homogeneous"])
@pytest.mark.parametrize("k", [0, 2])
def test_restored_velocity_is_its_stream_function(tmp_path, k, mode):
    """A checkpoint holds no u_half: a restore sets it to Z psi_0, the
    step's own expression, so it is the saved state's u_half bit for bit."""
    text = lock_cfg_text(tmp_path / "o") if mode == "turbidity" else TORUS_CFG.format(out="o", degree=1)
    model = build_model(parse_config(text))
    ic = LockInitialCondition() if mode == "turbidity" else stepper.RandomSolenoidalInitialCondition(seed=3)
    state, _ = initialize(model, ic)
    eng = Engine(model, state)
    for _ in range(k):
        state, _, _ = step(state, model)
    path = str(tmp_path / "c.ckpt")
    dfio.save_checkpoint(path, state, eng, model)
    data = dfio.load_checkpoint(path)
    assert "u_half" not in data["fields"]
    restored = dfio.restore_state(data, model).u_half
    assert np.array_equal(restored, model.Z @ state.psi_0)
    assert np.array_equal(restored, state.u_half)


@pytest.mark.parametrize("k, vectors, message", [
    (LEVELS + 1, lambda s: {**s.vectors(), "omega_past": s.vectors()["omega_past"][:-1]},
     rf"field 'omega_past' has \d+ values where a turbidity state at step {LEVELS + 1} holds"),
    (LEVELS + 1, lambda s: dataclasses.replace(s, psi_past=s.psi_past[:-1]).vectors(),
     rf"field 'psi_past' has \d+ values where a turbidity state at step {LEVELS + 1} holds"),
    (LEVELS - 1, lambda s: dataclasses.replace(s, phi_past=(*s.phi_past, s.phi_past[-1])).vectors(),
     rf"field 'phi_past' has \d+ values where a turbidity state at step {LEVELS - 1} holds"),
    (2, lambda s: dataclasses.replace(s, phi_past=()).vectors(),
     "field 'phi_past', which a turbidity state at step 2 holds, is missing"),
    (2, lambda s: {**s.vectors(), "u_half": s.u_half},
     "field 'u_half' is not a field of a turbidity state at step 2"),
], ids=["wrong_length", "missing_level", "level_before_step_0", "missing_field", "velocity"])
def test_checkpoint_history_refused(tmp_path, monkeypatch, k, vectors, message):
    """A checkpoint whose fields do not fit its step is refused, naming
    the field and the step: a full history's stack of the wrong length or
    one level short, a stack one level longer than step k < LEVELS holds,
    which would lie before step 0, and a stack that step k holds left
    out.  So is a file that holds u_half besides psi_0, which a state
    holds only as Z psi_0."""
    cfg = parse_config(lock_cfg_text(tmp_path / "o"))
    model = build_model(cfg)
    state, _ = initialize(model, LockInitialCondition())
    eng = Engine(model, state)
    for _ in range(k):
        state, _, _ = step(state, model)
    bad = vectors(state)
    path = str(tmp_path / "c.ckpt")
    monkeypatch.setattr(SimulationState, "vectors", lambda self: bad)
    dfio.save_checkpoint(path, state, eng, model)
    monkeypatch.undo()
    with pytest.raises(dfio.CheckpointError, match=message):
        dfio.restore_state(dfio.load_checkpoint(path), model)


@pytest.mark.parametrize("old, new, part", [
    ("pattern = left", "pattern = right", "mesh"),
    ("grashof = 5e6", "grashof = 1e6", "physics"),
    ("lock_length = 1.0", "lock_length = 2.0", "mesh"),
    ("ny = 2", "ny = 3", "mesh"),
])
def test_resume_refuses_checkpoint_of_another_run(tmp_path, old, new, part):
    """A different run, with the same dof counts or, with ny changed, other
    ones: the checkpoint's identity refuses it before any field's length
    is read (stepper.restore's length refusals: test_checkpoint_history_refused)."""
    text = lock_cfg_text(tmp_path / "o", t_end=0.002).replace("ny = 2\n", "ny = 2\npattern = left\n")
    assert old in text
    run(parse_config(text))
    other = parse_config(text.replace(old, new).replace("t_end = 0.002", "t_end = 0.003"))
    with pytest.raises(dfio.CheckpointError, match=f"checkpoint {part} "):
        run(other, checkpoint=str(tmp_path / "o" / "checkpoint_final.ckpt"))


def test_checkpoint_identity_in_header(tmp_path):
    cfg = parse_config(lock_cfg_text(tmp_path / "o", t_end=0.001))
    result = run(cfg)
    data = dfio.load_checkpoint(str(tmp_path / "o" / "checkpoint_final.ckpt"))
    assert data["identity"] == dfio.run_identity(result.model)
    assert set(data["identity"]) == set(dfio.IDENTITY)


# the version line of a checkpoint this version reads
HEAD = f"{dfio.CHECKPOINT_MAGIC} {dfio.CHECKPOINT_VERSION}\n".encode()


@pytest.mark.parametrize("content, message", [
    (b"END\n", "not a dualflow checkpoint"),
    (HEAD + b"mode turbidity\ndegree 1\nk 0\nEND\n", "no 'dt' line"),
    (b"DUALFLOW-CKPT x\nEND\n", "version line 'DUALFLOW-CKPT x'"),
    (HEAD + b"mode homogeneous\ndegree 1\nk 0\ndt 0x1.0p-7\nidentity mesh=0\n"
     b"scalars Ev=0x0p+0 Es=0x0p+0 K_half0=0x0p+0 Ep0=0x0p+0 m_p0=0x0p+0 base_exchange=0x0p+0\n"
     b"fields omega psi_0 psi_0\ndims 1 1 1\nEND\n" + bytes(24), "fields line names psi_0 twice"),
], ids=["end_only", "no_dt", "bad_version", "repeated_field"])
def test_malformed_checkpoint_refused(tmp_path, content, message):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(content)
    with pytest.raises(dfio.CheckpointError, match=message) as exc:
        dfio.load_checkpoint(str(path))
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("old, new, message", [
    (b"\nfields ", b"\nfieldz ", "no 'fields' line"),
    (b"\nscalars Ev=", b"\nscalars Ex=", "scalars line lacks Ev"),
], ids=["no_fields", "no_Ev"])
def test_checkpoint_with_header_line_lost_refused(tmp_path, old, new, message):
    cfg = parse_config(lock_cfg_text(tmp_path / "o"))
    model = build_model(cfg)
    state, _ = initialize(model, LockInitialCondition())
    path = tmp_path / "c.ckpt"
    dfio.save_checkpoint(str(path), state, Engine(model, state), model)
    raw = path.read_bytes()
    assert raw.count(old) == 1
    path.write_bytes(raw.replace(old, new))
    with pytest.raises(dfio.CheckpointError, match=message):
        dfio.load_checkpoint(str(path))


@pytest.mark.parametrize("old, new, line", [
    (rb"\ndt \S+\n", b"\ndt 0x1.47ae147ae147bp+99997\n", r"'dt 0x1\.47ae147ae147bp\+99997'"),
    (rb" Ev=\S+", b" Ev=0x1p+99999", r"'scalars .*Ev=0x1p\+99999.*'"),
], ids=["dt", "Ev"])
def test_checkpoint_hex_float_past_the_largest_float_refused(tmp_path, old, new, line):
    """float.fromhex raises OverflowError, not ValueError, for a hex float
    past the largest float: the line is refused like any bad number."""
    cfg = parse_config(lock_cfg_text(tmp_path / "o"))
    model = build_model(cfg)
    state, _ = initialize(model, LockInitialCondition())
    path = tmp_path / "c.ckpt"
    dfio.save_checkpoint(str(path), state, Engine(model, state), model)
    edited, count = re.subn(old, new, path.read_bytes(), count=1)
    assert count == 1
    path.write_bytes(edited)
    with pytest.raises(dfio.CheckpointError, match=rf"c\.ckpt: bad checkpoint header line {line}$"):
        dfio.load_checkpoint(str(path))


@pytest.mark.parametrize("pattern, replacement, message", [
    (rb"\nk 2\n", b"\nk -3\n", r"c\.ckpt: bad checkpoint header line 'k -3'"),
    (rb"\ndt \S+\n", b"\ndt nan\n", "time step does not match"),
    (rb" Ev=\S+", b" Ev=nan", r"c\.ckpt: checkpoint scalars are not finite: Ev=nan"),
    (rb" Es=\S+", b" Es=inf", r"c\.ckpt: checkpoint scalars are not finite: Es=inf"),
], ids=["negative_step", "nan_dt", "nan_Ev", "inf_Es"])
def test_resume_refuses_checkpoint_with_bad_number(tmp_path, pattern, replacement, message):
    """A checkpoint at a negative step, or with a time step or an
    accumulator that is not finite, is refused before the CSV is cut back."""
    out = tmp_path / "o"
    text = lock_cfg_text(out, t_end=0.002)
    run(parse_config(text))
    path = tmp_path / "c.ckpt"
    raw = (out / "checkpoint_final.ckpt").read_bytes()
    edited, count = re.subn(pattern, replacement, raw, count=1)
    assert count == 1
    path.write_bytes(edited)
    csv = (out / "timeseries.csv").read_bytes()
    with pytest.raises(dfio.CheckpointError, match=message):
        run(parse_config(text.replace("t_end = 0.002", "t_end = 0.004")), checkpoint=str(path))
    assert (out / "timeseries.csv").read_bytes() == csv


@pytest.mark.parametrize("field", ["omega", "phi", "psi_0"])
def test_resume_refuses_checkpoint_with_non_finite_field(tmp_path, field):
    """A NaN in a checkpointed field is refused by name at load, before the
    CSV is cut back, not by a solver one or more steps into the resume."""
    out = tmp_path / "o"
    text = lock_cfg_text(out, t_end=0.002)
    run(parse_config(text))
    data = dfio.load_checkpoint(str(out / "checkpoint_final.ckpt"))
    raw = (out / "checkpoint_final.ckpt").read_bytes()
    names = list(data["fields"])
    start = len(raw) - 8 * sum(len(v) for v in data["fields"].values())
    start += 8 * sum(len(data["fields"][name]) for name in names[:names.index(field)])
    path = tmp_path / "c.ckpt"
    path.write_bytes(raw[:start + 8] + np.array([np.nan], dtype="<f8").tobytes() + raw[start + 16:])
    csv = (out / "timeseries.csv").read_bytes()
    with pytest.raises(dfio.CheckpointError, match=f"field '{field}' has non-finite values") as exc:
        run(parse_config(text.replace("t_end = 0.002", "t_end = 0.004")), checkpoint=str(path))
    assert str(path) in str(exc.value)
    assert (out / "timeseries.csv").read_bytes() == csv


def test_cli_resume_malformed_checkpoint(tmp_path):
    cfgfile = tmp_path / "a.cfg"
    cfgfile.write_text(lock_cfg_text(tmp_path / "o"))
    (tmp_path / "bad.ckpt").write_bytes(b"END\n")
    proc = run_cli(["resume", "--config", str(cfgfile), "--checkpoint", "bad.ckpt"], cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "bad.ckpt" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("field", ["omega", "phi", "psi_0"])
def test_cli_resume_refuses_checkpoint_missing_a_state_field(tmp_path, field):
    """A checkpoint whose fields lack part of the turbidity state is refused
    with one error line naming the field, not a traceback at set-up or in
    a later step."""
    cfgfile = tmp_path / "a.cfg"
    cfgfile.write_text(lock_cfg_text(tmp_path / "o"))
    model = build_model(parse_config(cfgfile.read_text()))
    state, _ = initialize(model, LockInitialCondition())
    engine = Engine(model, state)
    setattr(state, field, None)
    dfio.save_checkpoint(str(tmp_path / "c.ckpt"), state, engine, model)
    proc = run_cli(["resume", "--config", str(cfgfile), "--checkpoint", "c.ckpt"], cwd=tmp_path)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and repr(field) in lines[0]
    assert "Traceback" not in proc.stderr


def test_homogeneous_checkpoint_with_phi_refused(tmp_path):
    text = """
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
t_end = 1e-2

[output]
dir = {out}
"""
    result = run(parse_config(text.format(out=tmp_path / "o")))
    data = dfio.load_checkpoint(str(tmp_path / "o" / "checkpoint_final.ckpt"))
    assert "phi" not in data["fields"]
    dfio.restore_state(data, result.model)
    data["fields"]["phi"] = np.zeros(result.model.W.dim)
    with pytest.raises(dfio.CheckpointError, match="'phi'"):
        dfio.restore_state(data, result.model)


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    cfg = parse_config(lock_cfg_text(tmp_path / "o"))
    model = build_model(cfg)
    state, _ = initialize(model, LockInitialCondition())
    eng = Engine(model, state)
    path = tmp_path / "c.ckpt"
    dfio.save_checkpoint(str(path), state, eng, model)
    before = path.read_bytes()
    state, _, _ = step(state, model)

    class FailingFile:
        """Writes the header, then fails on the first payload vector."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, data):
            self.writes += 1
            if self.writes == 2:
                raise OSError("disk full")
            return self.fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(dfio, "open", lambda *a, **k: FailingFile(open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        dfio.save_checkpoint(str(path), state, eng, model)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ckpt"]


def csv_with_steps(path, steps, torn=None):
    rows = [",".join(CSV_COLUMNS)] + [f"{k},{k * 1e-3!r}" + ",0.5" * (len(CSV_COLUMNS) - 2) for k in steps]
    path.write_text("\n".join(rows) + "\n" + (torn or ""))
    return path


def test_resume_csv_cut_back_to_checkpoint_step(tmp_path):
    path = csv_with_steps(tmp_path / "a.csv", range(1, 7), torn="7,0.00")
    want = csv_with_steps(tmp_path / "b.csv", range(1, 4)).read_bytes()
    dfio.truncate_csv_for_resume(str(path), 3, 1)
    assert path.read_bytes() == want
    # csv_every = 2: the row of step 2 is the last one written at or before step 3
    path = csv_with_steps(tmp_path / "c.csv", (2, 4, 6))
    dfio.truncate_csv_for_resume(str(path), 3, 2)
    assert dfio.read_csv(str(path))["step"].tolist() == [2.0]
    # before the first CSV row, a missing file is fine; after it, refused
    dfio.truncate_csv_for_resume(str(tmp_path / "none.csv"), 1, 2)
    with pytest.raises(dfio.CheckpointError, match="missing"):
        dfio.truncate_csv_for_resume(str(tmp_path / "none.csv"), 3, 1)


def test_read_csv_refuses_a_torn_row(tmp_path):
    """A row with fewer fields than the header, or more, is refused with
    the file and its line, not read into columns of different lengths."""
    path = tmp_path / "t.csv"
    path.write_text("step,t,K\n1,0.1,2.5\n")
    assert dfio.read_csv(str(path))["K"].tolist() == [2.5]
    for torn in ("2,0.2", "2,0.2,2.5,7"):
        path.write_text(f"step,t,K\n1,0.1,2.5\n{torn}\n")
        fields = len(torn.split(","))
        with pytest.raises(ValueError, match=rf"t\.csv, line 3: {fields} fields where the header has 3"):
            dfio.read_csv(str(path))


@pytest.mark.parametrize("steps,torn", [((1, 2), None), ((1, 2), "3,0.00"), ((), None)])
def test_resume_refuses_csv_missing_rows(tmp_path, steps, torn):
    path = csv_with_steps(tmp_path / "a.csv", steps, torn=torn)
    with pytest.raises(dfio.CheckpointError, match="through step 3"):
        dfio.truncate_csv_for_resume(str(path), 3, 1)


@pytest.mark.parametrize("steps, k, csv_every, line, found, wanted", [
    ((1, 2, 3), 3, 2, 2, 1, 2),   # written every step, resumed with csv_every = 2
    ((2, 6), 7, 2, 3, 6, 4),      # a gap
    ((1, 2, 2, 3), 3, 1, 4, 2, 3),  # a repeat
])
def test_resume_refuses_csv_off_its_cadence(tmp_path, steps, k, csv_every, line, found, wanted):
    """A kept row that is not the next csv_every writes is named with its
    line, its step and csv_every."""
    path = csv_with_steps(tmp_path / "a.csv", steps)
    with pytest.raises(dfio.CheckpointError, match=rf"a\.csv, line {line}: a row of step {found} "
                                                   rf"where csv_every = {csv_every} writes step {wanted}"):
        dfio.truncate_csv_for_resume(str(path), k, csv_every)


def test_resume_with_another_csv_every_refused_for_the_cadence(tmp_path):
    """A torus run that writes a row every step to step 3, resumed from its
    step-3 checkpoint with csv_every = 2, has every row it needs: it is
    refused for the cadence of those rows."""
    out = tmp_path / "o"
    text = TORUS_CFG.format(out=out, degree=1).replace("vtk_every = 1", "checkpoint_every = 1")
    run(parse_config(text))
    with pytest.raises(dfio.CheckpointError, match="a row of step 1 where csv_every = 2 writes step 2"):
        run(parse_config(text + "csv_every = 2\n"), checkpoint=str(out / "checkpoint_00000003.ckpt"))


def test_resume_refuses_csv_row_with_bad_step(tmp_path):
    """A complete row whose step is not an integer is named by path and line."""
    path = csv_with_steps(tmp_path / "a.csv", (1, 2, 3))
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = "x" + lines[2]
    path.write_text("".join(lines))
    with pytest.raises(dfio.CheckpointError, match=r"a\.csv, line 3: the step field is not an integer"):
        dfio.truncate_csv_for_resume(str(path), 3, 1)


def test_cli_check_ok(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(lock_cfg_text(tmp_path / "o"))
    proc = run_cli(["check", "--config", str(cfgfile)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not (tmp_path / "o").exists()  # check writes nothing


def test_cli_check_solves_the_startup_pressure(tmp_path, monkeypatch, capsys):
    """check validates the startup down to the pressure of its last pass:
    it solves it once, and a pressure that refuses fails the check."""
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(lock_cfg_text(tmp_path / "o"))
    solved = []

    def recorded(model, *args, **kwargs):
        solved.append((model, pressure(model, *args, **kwargs)))
        return solved[-1][1]

    pressure = stepper.Model.pressure
    monkeypatch.setattr(stepper.Model, "pressure", recorded)
    assert cli.main(["check", "--config", str(cfgfile)]) == 0
    assert len(solved) == 1
    model, p = solved[0]
    assert p.shape == (model.Q.dim,)  # a DG pressure

    def refused(model, *args, **kwargs):
        raise SolverError("pressure: refused")

    monkeypatch.setattr(stepper.Model, "pressure", refused)
    assert cli.main(["check", "--config", str(cfgfile)]) == 1
    assert "error: pressure: refused" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("schmidt", ["1e-300", "1e300"])
def test_cli_check_refuses_a_schmidt_number_without_a_finite_diffusivity(tmp_path, capsys, schmidt):
    """Sc = 1e-300 underflows Gr Sc^2 to 0 and Sc = 1e300 overflows Sc^2:
    each is refused at its line, not met by a ZeroDivisionError or an
    OverflowError traceback from the diffusivity."""
    text = lock_cfg_text(tmp_path / "o").replace("grashof = 5e6", f"grashof = 5e6\nschmidt = {schmidt}")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    assert cli.main(["check", "--config", str(cfgfile)]) == 1
    line = text.splitlines().index(f"schmidt = {schmidt}") + 1
    assert capsys.readouterr().err.startswith(f"error: line {line}: physics.schmidt: must give a finite")


def test_cli_bad_config_exit_code(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("[mesh]\nnx = 4\n")
    proc = run_cli(["check", "--config", str(cfgfile)], cwd=tmp_path)
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_cli_run_refuses_infinite_t_end(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(lock_cfg_text(tmp_path / "o", t_end="inf"))
    proc = run_cli(["run", "--config", str(cfgfile)], cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "time.t_end: must be finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_cli_run_refuses_negative_seed_at_its_line(tmp_path):
    """A negative random seed is refused by the configuration, at its line,
    before a model is built or the output directory is made."""
    text = f"""
[mesh]
length = 6.283185307179586
height = 6.283185307179586
nx = 4
ny = 4

[physics]
mode = homogeneous
nu = 0.01

[time]
dt = 1e-2
t_end = 2e-2

[initial]
kind = random
seed = -3

[output]
dir = {tmp_path / "o"}
"""
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    line = text.splitlines().index("seed = -3") + 1
    proc = run_cli(["run", "--config", str(cfgfile)], cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and f"line {line}: initial.seed" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_cli_mesh_info_table1(tmp_path):
    from util_sim1 import write_sim1_mesh

    mesh_path = write_sim1_mesh(tmp_path / "sim1.txt")
    cfgfile = tmp_path / "run.cfg"
    text = lock_cfg_text(tmp_path / "o", degree=4).replace(
        "nx = 13\nny = 2", f"import = {mesh_path}"
    )
    cfgfile.write_text(text)
    proc = run_cli(["mesh-info", "--config", str(cfgfile)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "dof_vorticity  9169" in out
    assert "dof_velocity   20328" in out
    assert "dof_pressure   11160" in out
    assert "cells          1116" in out


def test_cli_mesh_info_lock_exchange(tmp_path):
    """The whole mesh-info block of the shipped desk config."""
    config = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs",
                          "lock_exchange.cfg")
    proc = run_cli(["mesh-info", "--config", config], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "vertices       556",
        "edges          1555",
        "cells          1000",
        "h_min          0.164012",
        "total_area     13",
        "degree         2",
        "dof_vorticity  2111",
        "dof_velocity   5110",
        "dof_pressure   3000",
        "eq_num_cells   5846.15",
    ]


def test_cli_resume_refuses_empty_checkpoint(tmp_path):
    cfgfile = tmp_path / "a.cfg"
    cfgfile.write_text(lock_cfg_text(tmp_path / "o"))
    proc = run_cli(["resume", "--config", str(cfgfile), "--checkpoint", ""], cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == "error: resume needs --checkpoint PATH\n"
    assert not (tmp_path / "o").exists()


def test_cli_missing_mesh_import_names_file(tmp_path):
    missing = tmp_path / "no_such_mesh.txt"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(lock_cfg_text(tmp_path / "o").replace("nx = 13\nny = 2", f"import = {missing}"))
    proc = run_cli(["mesh-info", "--config", str(cfgfile)], cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and str(missing) in proc.stderr
    assert "No such file" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_check_refuses_empty_mesh_import_at_its_line(tmp_path):
    """`import =` sets no mesh: refused at its line by the configuration,
    not read as an import by config and as none by the mesh builder."""
    text = lock_cfg_text(tmp_path / "o").replace("nx = 13\nny = 2", "import =")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    proc = run_cli(["check", "--config", str(cfgfile)], cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == f"error: line {text.splitlines().index('import =') + 1}: mesh.import: empty value\n"


@pytest.mark.parametrize("kind", ["channel", "torus"])
def test_cli_check_small_grids_pass_or_refuse_an_empty_stream_basis(tmp_path, capsys, kind):
    """Every channel of up to 3 x 2 quads and every torus of up to 3 x 3, of
    each pattern, at degrees 1 and 2, passes check, or is refused because
    no CG dof lies off the walls: a two-triangle channel one quad wide or
    high at degree 1, which has no interior vertex.  None dies inside
    numpy in a System built on no dofs."""
    if kind == "channel":
        grids = itertools.product((1, 2, 3), (1, 2))
    else:
        grids = itertools.product((2, 3), (2, 3))
    cfgfile = tmp_path / "run.cfg"
    refused = []
    for (nx, ny), pattern, degree in itertools.product(grids, QUAD_TRIANGLES, (1, 2)):
        if kind == "channel":
            text = lock_cfg_text(tmp_path / "o", nx=nx, ny=ny, degree=degree)
        else:
            text = TORUS_CFG.format(degree=degree, out=tmp_path / "o").replace(
                "nx = 4\nny = 4", f"nx = {nx}\nny = {ny}")
        cfgfile.write_text(text.replace("[physics]", f"pattern = {pattern}\n\n[physics]", 1))
        code = cli.main(["check", "--config", str(cfgfile)])
        err = capsys.readouterr().err
        assert code == 0 or "the stream-function basis is empty" in err, (nx, ny, pattern, degree, err)
        if code:
            refused.append((nx, ny, pattern, degree))
    walled = [(nx, ny, pattern, 1) for nx, ny in itertools.product((1, 2, 3), (1, 2))
              for pattern in ("left", "right") if min(nx, ny) == 1]
    assert sorted(refused) == (sorted(walled) if kind == "channel" else [])
    assert not (tmp_path / "o").exists()


def test_cli_run_and_resume_bitwise(tmp_path):
    # uninterrupted run
    cfg_a = tmp_path / "a.cfg"
    cfg_a.write_text(lock_cfg_text(tmp_path / "outA", t_end=0.006, extra="checkpoint_every = 3"))
    assert run_cli(["run", "--config", str(cfg_a)], cwd=tmp_path).returncode == 0
    # first half, then resume into the same directory
    cfg_b = tmp_path / "b.cfg"
    cfg_b.write_text(lock_cfg_text(tmp_path / "outB", t_end=0.003, extra="checkpoint_every = 3"))
    assert run_cli(["run", "--config", str(cfg_b)], cwd=tmp_path).returncode == 0
    cfg_b2 = tmp_path / "b2.cfg"
    cfg_b2.write_text(lock_cfg_text(tmp_path / "outB", t_end=0.006, extra="checkpoint_every = 3"))
    proc = run_cli(
        ["resume", "--config", str(cfg_b2), "--checkpoint", str(tmp_path / "outB" / "checkpoint_00000003.ckpt")],
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"finished at step 6 (t = 0.006); outputs in {tmp_path / 'outB'}" in proc.stdout
    csv_a = (tmp_path / "outA" / "timeseries.csv").read_bytes()
    csv_b = (tmp_path / "outB" / "timeseries.csv").read_bytes()
    assert csv_a == csv_b
    ck_a = (tmp_path / "outA" / "checkpoint_final.ckpt").read_bytes()
    ck_b = (tmp_path / "outB" / "checkpoint_final.ckpt").read_bytes()
    assert ck_a == ck_b


def test_cli_resume_after_crash_bitwise(tmp_path):
    """A run that went past its checkpoint (here to step 6, then a torn CSV
    row) and is resumed from step 3 rewrites steps 4-6 exactly once."""
    text = lock_cfg_text(tmp_path / "outA", t_end=0.006, extra="checkpoint_every = 3")
    (tmp_path / "a.cfg").write_text(text)
    assert run_cli(["run", "--config", str(tmp_path / "a.cfg")], cwd=tmp_path).returncode == 0
    (tmp_path / "b.cfg").write_text(text.replace("outA", "outB"))
    assert run_cli(["run", "--config", str(tmp_path / "b.cfg")], cwd=tmp_path).returncode == 0
    with open(tmp_path / "outB" / "timeseries.csv", "a") as fh:
        fh.write("7,0.00")
    proc = run_cli(
        ["resume", "--config", str(tmp_path / "b.cfg"),
         "--checkpoint", str(tmp_path / "outB" / "checkpoint_00000003.ckpt")],
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("timeseries.csv", "checkpoint_final.ckpt"):
        assert (tmp_path / "outA" / name).read_bytes() == (tmp_path / "outB" / name).read_bytes()
    # with the CSV gone, the resume refuses instead of writing a partial series
    (tmp_path / "outB" / "timeseries.csv").unlink()
    proc = run_cli(
        ["resume", "--config", str(tmp_path / "b.cfg"),
         "--checkpoint", str(tmp_path / "outB" / "checkpoint_00000003.ckpt")],
        cwd=tmp_path,
    )
    assert proc.returncode == 1
    assert "error:" in proc.stderr and "timeseries.csv is missing" in proc.stderr


def test_cli_progress_line_carries_identity_maxima(tmp_path):
    """`dualflow run` prints the running maxima of |mass_residual| and
    |eres_gap|, the two per-step identity gaps of the time series, the
    mean wall ms/step since the previous progress line and the mean
    refinement passes per step since then, the steps' summed
    SolverReport.refinements."""
    (tmp_path / "a.cfg").write_text(lock_cfg_text(tmp_path / "out", t_end=0.003))
    proc = run_cli(["run", "--config", str(tmp_path / "a.cfg")], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    last = [line for line in proc.stdout.splitlines() if line.startswith("step 3/3")][-1]
    fields = dict(item.split("=", 1) for item in last.split() if "=" in item)
    passes = []
    rows = run(parse_config(lock_cfg_text(tmp_path / "ref", t_end=0.003)),
               on_step=lambda prev, state, reports, row: passes.append(
                   sum(rep.refinements for rep in reports.values()))).rows
    for name in ("mass_residual", "eres_gap"):
        worst = max(abs(getattr(row, name)) for row in rows)
        assert fields[f"max|{name}|"] == f"{worst:.2e}"
        assert worst > 0.0
    assert float(fields["ms/step"]) > 0.0
    assert fields["passes/step"] == f"{passes[-1]:.3g}" and passes[-1] > 0


def test_cli_homogeneous_taylor_green(tmp_path):
    cfgfile = tmp_path / "tg.cfg"
    cfgfile.write_text("""
[mesh]
length = 6.283185307179586
height = 6.283185307179586
nx = 8
ny = 8

[physics]
mode = homogeneous
nu = 0.01

[discretization]
degree = 1

[time]
dt = 1e-2
t_end = 0.05

[output]
dir = tg_out
""")
    proc = run_cli(["run", "--config", str(cfgfile)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    data = dfio.read_csv(str(tmp_path / "tg_out" / "timeseries.csv"))
    assert len(data["step"]) == 5
    assert np.all(data["div_inf"] <= 1e-10)
    # viscous decay: kinetic energy strictly decreases
    assert np.all(np.diff(data["K"]) < 0)
    assert np.all(data["Ep"] == 0.0)  # no particle field in this mode


BOX = """
[mesh]
length = 6.283185307179586
height = 6.283185307179586
nx = 8
ny = 8

[physics]
mode = homogeneous
nu = 0.0

[discretization]
degree = 1

[initial]
kind = random
seed = 3

[time]
dt = {dt}
t_end = {t_end}

[output]
dir = {out}
"""


@pytest.mark.parametrize("dt, per_step", [(1e-2, 0), (1.0, 2)])
def test_run_log_counts_fallbacks(tmp_path, dt, per_step):
    """The progress line carries the running count of solves that missed
    the tolerance against their static factor and were factored afresh:
    the startup's and every step's, as the steps report them.  At dt = 1
    the startup's momentum solves fall back, and so do the vorticity and
    stream function solves of the first step, which starts them from no
    history; at dt = 1e-2 none does.  Before it, each line (one per step
    here) carries its step's refinement passes, as passes/step."""
    lines, fallbacks, passes = [], [], []

    def on_step(prev, state, reports, row):
        fallbacks.append(sum(rep.fallback for rep in reports.values()))
        passes.append(sum(rep.refinements for rep in reports.values()))

    result = run(parse_config(BOX.format(dt=dt, t_end=3 * dt, out=tmp_path)), on_step=on_step,
                 log=lines.append)
    assert (result.startup.fallbacks > 0) == (per_step > 0)
    assert fallbacks[0] == per_step and (sum(fallbacks) > 0) == (per_step > 0)
    expected = result.startup.fallbacks + sum(fallbacks)
    assert lines[-1].startswith("step 3/3") and lines[-1].endswith(f"fallbacks={expected}")
    steps = [line.split() for line in lines if line.startswith("step ")]
    assert [items[-2] for items in steps] == [f"passes/step={n:.3g}" for n in passes]
