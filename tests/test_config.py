import pytest

from dualflow.config import ConfigError, parse_config
from dualflow.stepper import TimeConfig

BASELINE = """\
# paper-scale baseline parameters
[mesh]
length = 13.0
height = 1.0
lock_length = 1.0
nx = 50
ny = 5
pattern = crisscross

[physics]
mode = turbidity
grashof = 5e6
schmidt = 1.0
settling_velocity = 0.02

[discretization]
degree = 4

[time]
dt = 1e-3
t_end = 12.0

[output]
dir = out
"""


def test_baseline_parses():
    cfg = parse_config(BASELINE)
    assert cfg.physics["grashof"] == 5e6
    assert cfg.physics["schmidt"] == 1.0
    assert cfg.physics["settling_velocity"] == 0.02
    assert cfg.time["dt"] == 1e-3
    assert cfg.mesh["length"] == 13.0
    assert cfg.discretization["degree"] == 4  # accepted for dof accounting
    assert cfg.initial["kind"] == "lock"


def test_degree4_run_rejected_with_clear_error(tmp_path):
    from dualflow.driver import build_model
    from dualflow.elements import UnsupportedElementError

    cfg = parse_config(BASELINE)
    with pytest.raises(UnsupportedElementError):
        build_model(cfg)


def test_empty_config_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config("")
    assert "mesh" in str(exc.value)


def test_missing_required_key():
    text = BASELINE.replace("dt = 1e-3\n", "")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert "time.dt" in str(exc.value)


def test_negative_dt_names_key_and_line():
    text = BASELINE.replace("dt = 1e-3", "dt = -1")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    msg = str(exc.value)
    assert "time.dt" in msg and "line" in msg


def test_unknown_key_rejected_with_line():
    text = BASELINE + "fancy = yes\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    msg = str(exc.value)
    assert "output.fancy" in msg
    assert f"line {len(BASELINE.splitlines()) + 1}" in msg


@pytest.mark.parametrize("section, key", [("solver", "tolerance = 1e-10"),
                                          ("flags", "paper_literal_signs = true")])
def test_removed_options_rejected_with_line(section, key):
    text = BASELINE + f"\n[{section}]\n{key}\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    msg = str(exc.value)
    assert f"[{section}]" in msg
    assert f"line {len(BASELINE.splitlines()) + 2}" in msg


@pytest.mark.parametrize("line", ["startup_tol = 1e-10", "startup_max_iter = 25"])
def test_removed_startup_keys_rejected_with_line(line):
    text = BASELINE.replace("t_end = 12.0", f"t_end = 12.0\n{line}")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    key = line.split(" =")[0]
    assert str(exc.value) == f"line {text.splitlines().index(line) + 1}: unknown key time.{key}"


def test_unknown_section_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config("[turbulence]\nmodel = none\n")
    assert "turbulence" in str(exc.value)


def test_type_mismatch_reported():
    text = BASELINE.replace("nx = 50", "nx = fifty")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert "mesh.nx" in str(exc.value)


def test_duplicate_key_rejected():
    text = BASELINE + "\n[time]\ndt = 2e-3\n"
    with pytest.raises(ConfigError):
        parse_config(text)


HOMOGENEOUS = """
[mesh]
length = 6.283185307179586
height = 6.283185307179586
nx = 16
ny = 16

[physics]
mode = homogeneous
nu = 0.01

[time]
dt = 1e-3
t_end = 0.5
"""


def test_homogeneous_defaults():
    cfg = parse_config(HOMOGENEOUS)
    assert cfg.initial["kind"] == "taylor_green"


def test_homogeneous_rejects_lock_initial():
    text = HOMOGENEOUS + "\n[initial]\nkind = lock\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    msg = str(exc.value)
    assert "initial.kind" in msg
    assert f"line {text.splitlines().index('kind = lock') + 1}" in msg


MISPLACED = [  # (key, BASELINE line, its replacement)
    ("mesh.length", "length = 13.0", "length = -1"),
    ("mesh.height", "height = 1.0", "height = -1"),
    ("mesh.nx", "nx = 50", "nx = 0"),
    ("mesh.ny", "ny = 5", "ny = 0"),
    ("output.vtk_every", "dir = out", "dir = out\nvtk_every = -1"),
    ("output.checkpoint_every", "dir = out", "dir = out\ncheckpoint_every = -1"),
]


@pytest.mark.parametrize("key, old, new", MISPLACED, ids=[case[0] for case in MISPLACED])
def test_validation_names_offending_key_and_line(key, old, new):
    text = BASELINE.replace(old, new, 1)
    bad = new.splitlines()[-1]
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value).startswith(f"line {text.splitlines().index(bad) + 1}: {key}:")


@pytest.mark.parametrize("dt, t_end, steps", [("0.3", "0.9", 3), ("0.3", "0.9000000000001", 3),
                                               ("1e-3", "0.003", 3), ("0.25", "2.9999999999", 12)])
def test_whole_number_of_steps_accepted(dt, t_end, steps):
    """t_end / dt within 1e-9 steps of a whole number, as TimeConfig.num_steps
    counts the steps, is that many steps."""
    text = HOMOGENEOUS.replace("dt = 1e-3", f"dt = {dt}").replace("t_end = 0.5", f"t_end = {t_end}")
    assert TimeConfig(**parse_config(text).time).num_steps == steps


@pytest.mark.parametrize("dt, t_end", [("0.3", "1.0"), ("1e-3", "0.0105"), ("0.25", "0.9")])
def test_partial_last_step_refused_at_line(dt, t_end):
    """A t_end that is not a whole number of steps would be cut short
    without a word (dt = 0.3, t_end = 1.0 ran 3 steps, to t = 0.9): it is
    refused at its line."""
    text = HOMOGENEOUS.replace("dt = 1e-3", f"dt = {dt}").replace("t_end = 0.5", f"t_end = {t_end}")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    line = text.splitlines().index(f"t_end = {t_end}") + 1
    assert str(exc.value).startswith(f"line {line}: time.t_end: must be a whole number of time steps")


NONFINITE = [  # (key, the config's line, its replacement)
    ("time.t_end", "t_end = 0.5", "t_end = inf"),
    ("time.t_end", "t_end = 0.5", "t_end = nan"),
    ("time.dt", "dt = 1e-3", "dt = nan"),
    ("physics.nu", "nu = 0.01", "nu = inf"),
    ("physics.nu", "nu = 0.01", "nu = nan"),
    ("mesh.length", "length = 6.283185307179586", "length = nan"),
    ("mesh.height", "height = 6.283185307179586", "height = -inf"),
]


@pytest.mark.parametrize("key, old, new", NONFINITE, ids=[case[2] for case in NONFINITE])
def test_non_finite_float_refused_at_line(key, old, new):
    """inf and nan parse as floats; each is refused at its line before it
    can overflow a step count or reach a factorization."""
    text = HOMOGENEOUS.replace(old, new, 1)
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value).startswith(f"line {text.splitlines().index(new) + 1}: {key}: must be finite")


def test_turbidity_rejects_non_lock_initial():
    text = BASELINE + "\n[initial]\nkind = random\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert "initial.kind" in str(exc.value)


def test_lock_geometry_constraint():
    text = BASELINE.replace("lock_length = 1.0", "lock_length = 14.0")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert "lock_length" in str(exc.value)


UNREAD = [  # (key, config, the line that sets it, placed after `anchor`)
    ("physics.nu", BASELINE, "settling_velocity = 0.02", "nu = 0.5"),
    ("initial.seed", BASELINE, "dir = out", "[initial]\nseed = 3"),
    ("physics.grashof", HOMOGENEOUS, "nu = 0.01", "grashof = 10"),
    ("physics.schmidt", HOMOGENEOUS, "nu = 0.01", "schmidt = 2.0"),
    ("physics.settling_velocity", HOMOGENEOUS, "nu = 0.01", "settling_velocity = 0.5"),
    ("mesh.lock_length", HOMOGENEOUS, "ny = 16", "lock_length = 1.0"),
    ("mesh.import", HOMOGENEOUS, "ny = 16", "import = box.txt"),
    ("initial.interface_width", HOMOGENEOUS, "t_end = 0.5",
     "[initial]\nkind = random\ninterface_width = 0.1"),
    ("initial.seed", HOMOGENEOUS, "t_end = 0.5", "[initial]\nkind = taylor_green\nseed = 3"),
]


@pytest.mark.parametrize("key, base, anchor, added", UNREAD,
                         ids=[f"{case[0]}-{'turbidity' if case[1] is BASELINE else 'homogeneous'}"
                              for case in UNREAD])
def test_keys_the_mode_never_reads_refused_at_line(key, base, anchor, added):
    text = base.replace(anchor, f"{anchor}\n{added}", 1)
    bad = added.splitlines()[-1]
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value).startswith(f"line {text.splitlines().index(bad) + 1}: {key}:")


def test_seed_accepted_by_random_start():
    cfg = parse_config(HOMOGENEOUS + "\n[initial]\nkind = random\nseed = 3\n")
    assert cfg.initial["seed"] == 3


IMPORTED = BASELINE.replace("nx = 50\nny = 5\npattern = crisscross\n", "import = sim1.txt\n")


def test_imported_mesh_needs_no_grid_keys():
    cfg = parse_config(IMPORTED)
    assert cfg.mesh["import"] == "sim1.txt"
    assert cfg.mesh["nx"] is None and cfg.mesh["ny"] is None


@pytest.mark.parametrize("key, added", [("mesh.nx", "nx = 999"), ("mesh.ny", "ny = 999"),
                                        ("mesh.pattern", "pattern = right")])
def test_grid_keys_refused_with_imported_mesh_at_line(key, added):
    text = IMPORTED.replace("import = sim1.txt", f"import = sim1.txt\n{added}", 1)
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value).startswith(f"line {text.splitlines().index(added) + 1}: {key}:")
