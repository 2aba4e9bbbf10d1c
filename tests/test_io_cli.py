import numpy as np
import pytest

from dualflow import io as dfio
from dualflow.config import parse_config
from dualflow.driver import build_model, run
from dualflow.diagnostics import CSV_COLUMNS, Engine
from dualflow.stepper import LockInitialCondition, initialize, step

from conftest import run_cli


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


def test_csv_roundtrip_exact(tmp_path):
    out = tmp_path / "o"
    cfg = parse_config(lock_cfg_text(out, t_end=0.003))
    result = run(cfg)
    data = dfio.read_csv(str(out / "timeseries.csv"))
    assert len(data["step"]) == 3
    # shortest round-trip formatting: text -> float recovers exact values
    for row, K in zip(result.rows, data["K"]):
        assert row.K == K


def test_vtk_zero_state(tmp_path):
    cfg = parse_config(lock_cfg_text(tmp_path / "o"))
    model = build_model(cfg)
    from dualflow.spaces import Field
    from dualflow.stepper import SimulationState

    state = SimulationState(
        k=0,
        u_half=Field(model.U, np.zeros(model.U.dim)),
        omega=Field(model.W, np.zeros(model.W.dim)),
        phi=Field(model.W, np.zeros(model.W.dim)),
        p_bar=Field(model.Q, np.zeros(model.Q.dim)),
        omega_tilde=Field(model.W, np.zeros(model.W.dim)),
    )
    path = tmp_path / "snap.vtk"
    dfio.write_vtk(state, str(path))
    text = path.read_text().splitlines()
    nv, nc = model.mesh.num_vertices, model.mesh.num_cells
    assert f"POINTS {nv} double" in text
    assert f"CELLS {nc} {4 * nc}" in text
    assert text.count("5") >= nc  # triangle cell types
    pidx = text.index("SCALARS phi double 1")
    vals = text[pidx + 2 : pidx + 2 + nv]
    assert all(float(v) == 0.0 for v in vals)


def test_vtk_lock_profile_at_t0(tmp_path):
    out = tmp_path / "o"
    cfg = parse_config(lock_cfg_text(out, t_end=1e-3, nx=52, ny=4, extra="vtk_every = 1"))
    run(cfg)
    path = out / "snapshot_00000000.vtk"
    assert path.exists()
    model = build_model(cfg)
    mesh = model.mesh
    text = path.read_text().splitlines()
    pidx = text.index("SCALARS phi double 1")
    vals = np.array([float(v) for v in text[pidx + 2 : pidx + 2 + mesh.num_vertices]])
    delta = 2 * mesh.h_min()
    left = vals[mesh.vertices[:, 0] < -3 * delta]
    right = vals[mesh.vertices[:, 0] > 3 * delta]
    assert np.all(np.abs(left - 1.0) < 0.05)
    assert np.all(np.abs(right) < 0.05)


def test_checkpoint_roundtrip_bitwise(tmp_path):
    cfg = parse_config(lock_cfg_text(tmp_path / "o"))
    model = build_model(cfg)
    state, _ = initialize(model, LockInitialCondition())
    eng = Engine(model, state)
    state, audit = step(state, model)
    path = str(tmp_path / "c.ckpt")
    dfio.save_checkpoint(path, state, eng, model)
    data = dfio.load_checkpoint(path)
    restored = dfio.restore_state(data, model)
    assert restored.k == state.k
    for name in ("u_half", "omega", "phi", "p_bar", "omega_tilde"):
        a = getattr(state, name).coefficients
        b = getattr(restored, name).coefficients
        assert np.array_equal(a, b)
    assert data["scalars"]["m_p0"] == eng.m_p0


def test_checkpoint_rejects_dimension_mismatch(tmp_path):
    cfg = parse_config(lock_cfg_text(tmp_path / "o"))
    model = build_model(cfg)
    state, _ = initialize(model, LockInitialCondition())
    eng = Engine(model, state)
    path = str(tmp_path / "c.ckpt")
    dfio.save_checkpoint(path, state, eng, model)
    other = parse_config(lock_cfg_text(tmp_path / "o2", nx=20, ny=3))
    model2 = build_model(other)
    data = dfio.load_checkpoint(path)
    with pytest.raises(dfio.CheckpointError):
        dfio.restore_state(data, model2)


@pytest.mark.parametrize("old, new, part", [
    ("pattern = left", "pattern = right", "mesh"),
    ("grashof = 5e6", "grashof = 1e6", "physics"),
    ("lock_length = 1.0", "lock_length = 2.0", "mesh"),
])
def test_resume_refuses_checkpoint_of_another_run(tmp_path, old, new, part):
    """Same dof counts, different run: the checkpoint's identity refuses it."""
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


@pytest.mark.parametrize("content, message", [
    (b"END\n", "not a dualflow checkpoint"),
    (b"DUALFLOW-CKPT 2\nmode turbidity\ndegree 1\nk 0\nEND\n", "no 'dt' line"),
    (b"DUALFLOW-CKPT x\nEND\n", "version line 'DUALFLOW-CKPT x'"),
], ids=["end_only", "no_dt", "bad_version"])
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


def test_cli_resume_malformed_checkpoint(tmp_path):
    cfgfile = tmp_path / "a.cfg"
    cfgfile.write_text(lock_cfg_text(tmp_path / "o"))
    (tmp_path / "bad.ckpt").write_bytes(b"END\n")
    proc = run_cli(["resume", "--config", str(cfgfile), "--checkpoint", "bad.ckpt"], cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "bad.ckpt" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("field", ["u_half", "omega", "phi"])
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
    state, _ = step(state, model)

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


@pytest.mark.parametrize("steps,torn", [((1, 2), None), ((1, 2), "3,0.00"), ((), None)])
def test_resume_refuses_csv_missing_rows(tmp_path, steps, torn):
    path = csv_with_steps(tmp_path / "a.csv", steps, torn=torn)
    with pytest.raises(dfio.CheckpointError, match="through step 3"):
        dfio.truncate_csv_for_resume(str(path), 3, 1)


def test_cli_check_ok(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(lock_cfg_text(tmp_path / "o"))
    proc = run_cli(["check", "--config", str(cfgfile)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not (tmp_path / "o").exists()  # check writes nothing


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


def test_cli_missing_mesh_import_names_file(tmp_path):
    missing = tmp_path / "no_such_mesh.txt"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(lock_cfg_text(tmp_path / "o").replace("nx = 13\nny = 2", f"import = {missing}"))
    proc = run_cli(["mesh-info", "--config", str(cfgfile)], cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and str(missing) in proc.stderr
    assert "No such file" in proc.stderr and "Traceback" not in proc.stderr


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
    |eres_gap|, the two per-step identity gaps of the time series, and
    the mean wall ms/step since the previous progress line."""
    (tmp_path / "a.cfg").write_text(lock_cfg_text(tmp_path / "out", t_end=0.003))
    proc = run_cli(["run", "--config", str(tmp_path / "a.cfg")], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    last = [line for line in proc.stdout.splitlines() if line.startswith("step 3/3")][-1]
    fields = dict(item.split("=", 1) for item in last.split() if "=" in item)
    rows = run(parse_config(lock_cfg_text(tmp_path / "ref", t_end=0.003))).rows
    for name in ("mass_residual", "eres_gap"):
        worst = max(abs(getattr(row, name)) for row in rows)
        assert fields[f"max|{name}|"] == f"{worst:.2e}"
        assert worst > 0.0
    assert float(fields["ms/step"]) > 0.0


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
    at dt = 1 the vorticity and stream function solves of every step and
    the startup's momentum solves, at dt = 1e-2 none."""
    lines = []
    result = run(parse_config(BOX.format(dt=dt, t_end=3 * dt, out=tmp_path)), log=lines.append)
    assert (result.startup.fallbacks > 0) == (per_step > 0)
    expected = result.startup.fallbacks + 3 * per_step
    assert lines[-1].startswith("step 3/3") and lines[-1].endswith(f"fallbacks={expected}")
