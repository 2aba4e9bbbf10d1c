import dataclasses
import math

import pytest

from dualflow.config import REQUIRED, SCHEMA, ConfigError, parse_config
from dualflow.mesh import (
    ChannelGeometry,
    ParameterError,
    build_channel_mesh,
    build_periodic_rect_mesh,
    check_grid,
)
from dualflow.stepper import (
    INITIAL_CONDITIONS,
    LockInitialCondition,
    PhysicsConfig,
    RandomSolenoidalInitialCondition,
    TimeConfig,
    initial_condition,
)

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


TAU = 2 * math.pi
DESK = ChannelGeometry(13.0, 1.0, 1.0)
OWNED = [  # (key, config, its line, the line that breaks the rule, the owner given the same value)
    ("physics.mode", HOMOGENEOUS, "mode = homogeneous", "mode = turbulent",
     lambda: PhysicsConfig(mode="turbulent")),
    ("physics.grashof", BASELINE, "grashof = 5e6", "grashof = 0", lambda: PhysicsConfig(grashof=0.0)),
    ("physics.schmidt", BASELINE, "schmidt = 1.0", "schmidt = -1", lambda: PhysicsConfig(schmidt=-1.0)),
    ("physics.schmidt", BASELINE, "schmidt = 1.0", "schmidt = 1e-300", lambda: PhysicsConfig(schmidt=1e-300)),
    ("physics.schmidt", BASELINE, "schmidt = 1.0", "schmidt = 1e300", lambda: PhysicsConfig(schmidt=1e300)),
    ("physics.settling_velocity", BASELINE, "settling_velocity = 0.02", "settling_velocity = -0.1",
     lambda: PhysicsConfig(settling_velocity=-0.1)),
    ("physics.nu", HOMOGENEOUS, "nu = 0.01", "nu = -0.01",
     lambda: PhysicsConfig(mode="homogeneous", nu=-0.01)),
    ("time.dt", HOMOGENEOUS, "dt = 1e-3", "dt = 0", lambda: TimeConfig(0.0, 0.5)),
    ("time.t_end", HOMOGENEOUS, "t_end = 0.5", "t_end = 1e-4", lambda: TimeConfig(1e-3, 1e-4)),
    ("time.t_end", HOMOGENEOUS, "t_end = 0.5", "t_end = 0.5005", lambda: TimeConfig(1e-3, 0.5005)),
    ("mesh.length", BASELINE, "length = 13.0", "length = 0", lambda: ChannelGeometry(0.0, 1.0, 1.0)),
    ("mesh.height", BASELINE, "height = 1.0", "height = 0", lambda: ChannelGeometry(13.0, 0.0, 1.0)),
    ("mesh.lock_length", BASELINE, "lock_length = 1.0", "lock_length = 0",
     lambda: ChannelGeometry(13.0, 1.0, 0.0)),
    ("mesh.lock_length", BASELINE, "lock_length = 1.0", "lock_length = 13.0",
     lambda: ChannelGeometry(13.0, 1.0, 13.0)),
    ("mesh.nx", BASELINE, "nx = 50", "nx = 0", lambda: build_channel_mesh(DESK, 0, 5, "crisscross")),
    ("mesh.ny", BASELINE, "ny = 5", "ny = -2", lambda: build_channel_mesh(DESK, 50, -2, "crisscross")),
    # the rule alone: a builder without it would allocate the grid
    ("mesh.nx", BASELINE, "nx = 50", "nx = 2147483648", lambda: check_grid(2147483648, 5, "crisscross")),
    ("mesh.pattern", BASELINE, "pattern = crisscross", "pattern = diagonal",
     lambda: build_channel_mesh(DESK, 50, 5, "diagonal")),
    ("mesh.nx", HOMOGENEOUS, "nx = 16", "nx = 1", lambda: build_periodic_rect_mesh(TAU, TAU, 1, 16)),
    ("mesh.pattern", HOMOGENEOUS, "ny = 16", "ny = 16\npattern = diagonal",
     lambda: build_periodic_rect_mesh(TAU, TAU, 16, 16, "diagonal")),
    ("mesh.length", HOMOGENEOUS, "length = 6.283185307179586", "length = 0",
     lambda: build_periodic_rect_mesh(0.0, TAU, 16, 16)),
    ("mesh.height", HOMOGENEOUS, "height = 6.283185307179586", "height = -1",
     lambda: build_periodic_rect_mesh(TAU, -1.0, 16, 16)),
    ("initial.interface_width", BASELINE, "dir = out", "dir = out\n[initial]\ninterface_width = 0",
     lambda: LockInitialCondition(interface_width=0.0)),
    ("initial.interface_width", BASELINE, "dir = out", "dir = out\n[initial]\ninterface_width = -0.1",
     lambda: LockInitialCondition(interface_width=-0.1)),
    ("initial.seed", HOMOGENEOUS, "t_end = 0.5", "t_end = 0.5\n[initial]\nkind = random\nseed = -1",
     lambda: RandomSolenoidalInitialCondition(seed=-1)),
]


@pytest.mark.parametrize("key, base, old, new, owner", OWNED,
                         ids=[f"{case[0]}-{case[3].splitlines()[-1]}" for case in OWNED])
def test_each_rule_is_its_owners_at_both_entry_points(key, base, old, new, owner):
    """The config file refuses the value at its line with the `section.key:`
    prefix, and the object that owns the rule refuses the same value with
    a ValueError naming the parameter; the file's message is the owner's."""
    text = base.replace(old, new, 1)
    assert text != base
    bad = new.splitlines()[-1]
    with pytest.raises(ConfigError) as from_file:
        parse_config(text)
    with pytest.raises(ValueError) as from_owner:
        owner()
    assert isinstance(from_owner.value, ParameterError)
    assert from_owner.value.name == key.split(".")[1]
    line = text.splitlines().index(bad) + 1
    assert str(from_file.value) == f"line {line}: {key}: {from_owner.value.reason}"


@pytest.mark.parametrize("kind", sorted(INITIAL_CONDITIONS))
def test_initial_condition_kinds_come_from_one_table(kind):
    """Every kind of the table parses in a mode that runs it, and the driver
    builds that kind's class from the table."""
    base = BASELINE if kind == "lock" else HOMOGENEOUS
    cfg = parse_config(base + f"\n[initial]\nkind = {kind}\n")
    assert type(initial_condition(cfg.initial)) is INITIAL_CONDITIONS[kind]


def test_unknown_initial_condition_refused_at_line():
    text = HOMOGENEOUS + "\n[initial]\nkind = vortex\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value).startswith(f"line {text.splitlines().index('kind = vortex') + 1}: initial.kind:")


OWNERS = {"mesh": (ChannelGeometry,), "physics": (PhysicsConfig,), "time": (TimeConfig,),
          "initial": tuple(INITIAL_CONDITIONS.values())}
UNOWNED = {"mesh": {"nx", "ny", "pattern", "import"}, "physics": set(), "time": set(), "initial": {"kind"}}


@pytest.mark.parametrize("section", sorted(OWNERS))
def test_owned_keys_take_their_owners_types_and_defaults(section):
    """Each field of a section's owners is a key of the section with the
    field's type and default (REQUIRED without one); the section's other
    keys are the ones no dataclass owns."""
    owned = {f.name: f for owner in OWNERS[section] for f in dataclasses.fields(owner)}
    for name, f in owned.items():
        typ, default = SCHEMA[section][name]
        assert typ is f.type
        assert (default is REQUIRED) if f.default is dataclasses.MISSING else (default == f.default)
    assert set(SCHEMA[section]) - set(owned) == UNOWNED[section]


@pytest.mark.parametrize("section, key", [(sec, key) for sec, keys in SCHEMA.items() for key in keys],
                         ids=[f"{sec}.{key}" for sec, keys in SCHEMA.items() for key in keys])
def test_empty_value_refused_at_its_line(section, key):
    """`key =` sets no value: it is refused at its line, for every key, not
    read as an empty string or left to its type's parse."""
    text = f"# nothing set\n[{section}]\n{key} =   # unset\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == f"line 3: {section}.{key}: empty value"
