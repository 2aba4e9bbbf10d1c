"""Run configuration: INI-style text with strict validation.

Format: `[section]` headers, `key = value` lines, `#` comments.  This
module keeps the file's own rules: grammar, empty values, types, finite
floats, unknown, duplicate and unread keys, required keys, the
initial-condition kind against the mode, `degree >= 1` and the output
cadences.  Every other value has one owner (PhysicsConfig, TimeConfig,
ChannelGeometry, mesh.check_grid, the initial condition), built here
once, whose ParameterError is reported as `line N: section.key: reason`.
A key that is an owner's dataclass field has that field's type and default.
"""

import math
from dataclasses import MISSING, dataclass, fields

from .mesh import ChannelGeometry, ParameterError, check_grid
from .stepper import INITIAL_CONDITIONS, PhysicsConfig, TimeConfig, initial_condition


class ConfigError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


# (type, default) per key, its field's where a dataclass owns the key; REQUIRED means the key must be present.
REQUIRED = object()


def _owned(*owners):
    """The owners' dataclass fields as keys: (type, default), REQUIRED if none."""
    return {f.name: (f.type, REQUIRED if f.default is MISSING else f.default) for o in owners for f in fields(o)}


SCHEMA = {
    "mesh": {
        **_owned(ChannelGeometry),
        "nx": (int, None),  # required unless the mesh is imported
        "ny": (int, None),
        "pattern": (str, "left"),
        "import": (str, None),
    },
    "physics": _owned(PhysicsConfig),
    "discretization": {
        "degree": (int, 2),
    },
    "time": _owned(TimeConfig),
    "initial": {
        "kind": (str, None),  # a key of stepper.INITIAL_CONDITIONS; default by mode
        **_owned(*INITIAL_CONDITIONS.values()),
    },
    "output": {
        "dir": (str, "out"),
        "csv_every": (int, 1),
        "vtk_every": (int, 0),
        "checkpoint_every": (int, 0),
    },
}

# keys a mode never reads; setting one is an error, not a silent no-op
UNREAD = {
    "turbidity": (("physics", "nu"),),
    "homogeneous": (("physics", "grashof"), ("physics", "schmidt"),
                    ("physics", "settling_velocity"), ("mesh", "lock_length"),
                    ("mesh", "import")),
}

# keys an imported mesh never reads
IMPORT_UNREAD = (("mesh", "nx"), ("mesh", "ny"), ("mesh", "pattern"))


@dataclass
class RunConfig:
    mesh: dict
    physics: dict
    discretization: dict
    time: dict
    initial: dict
    output: dict


def parse_config(text):
    """Parse and validate configuration text into a RunConfig."""
    values = {}
    lines_of = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {raw.strip()!r}", lineno)
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"unknown section [{section}]", lineno)
            values.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        if section is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in SCHEMA[section]:
            raise ConfigError(f"unknown key {section}.{key}", lineno)
        if key in values[section]:
            raise ConfigError(f"duplicate key {section}.{key}", lineno)
        if not val:
            raise ConfigError(f"{section}.{key}: empty value", lineno)
        typ, _default = SCHEMA[section][key]
        try:
            parsed = typ(val)
        except ValueError:
            raise ConfigError(
                f"{section}.{key}: expected {typ.__name__}, got {val!r}", lineno
            ) from None
        if typ is float and not math.isfinite(parsed):
            raise ConfigError(f"{section}.{key}: must be finite, got {val!r}", lineno)
        values[section][key] = parsed
        lines_of[(section, key)] = lineno

    cfg = {}
    for sec, keys in SCHEMA.items():
        cfg[sec] = {key: values.get(sec, {}).get(key, default) for key, (_, default) in keys.items()}
        for key, value in cfg[sec].items():
            if value is REQUIRED:
                raise ConfigError(f"required key {sec}.{key} is missing")

    _validate(cfg, lines_of)
    return RunConfig(**cfg)


def _validate(cfg, lines_of):
    def err(sec, key, msg):
        raise ConfigError(f"{sec}.{key}: {msg}", lines_of.get((sec, key)))

    def unread(keys, where):
        for sec, key in keys:
            if (sec, key) in lines_of:
                err(sec, key, f"is not read {where}")

    def ask(sec, owner, *args, **kwargs):
        try:
            owner(*args, **kwargs)
        except ParameterError as exc:
            err(sec, exc.name, exc.reason)

    mesh, phys, init = cfg["mesh"], cfg["physics"], cfg["initial"]
    unread(UNREAD.get(phys["mode"], ()), f"in {phys['mode']} mode")
    ask("physics", PhysicsConfig, **phys)
    torus = phys["mode"] == "homogeneous"
    if not torus:
        ask("mesh", ChannelGeometry, mesh["length"], mesh["height"], mesh["lock_length"])
    if mesh["import"] is not None:
        unread(IMPORT_UNREAD, "with mesh.import")
    else:
        for key in ("nx", "ny"):
            if mesh[key] is None:
                raise ConfigError(f"required key mesh.{key} is missing")
        ask("mesh", check_grid, mesh["nx"], mesh["ny"], mesh["pattern"],
            torus=(mesh["length"], mesh["height"]) if torus else None)
    if cfg["discretization"]["degree"] < 1:
        err("discretization", "degree", "must be at least 1")
    ask("time", TimeConfig, **cfg["time"])
    if init["kind"] is None:
        init["kind"] = "taylor_green" if torus else "lock"
    if init["kind"] not in INITIAL_CONDITIONS:
        err("initial", "kind", f"unknown initial condition {init['kind']!r}")
    if not torus and init["kind"] != "lock":
        err("initial", "kind", "turbidity mode uses the lock initial condition")
    if torus and init["kind"] == "lock":
        err("initial", "kind", "homogeneous mode has no particles: use taylor_green or random")
    read = [f.name for f in fields(INITIAL_CONDITIONS[init["kind"]])] + ["kind"]
    unread([("initial", key) for key in init if key not in read], f"by kind = {init['kind']}")
    ask("initial", initial_condition, init)
    out = cfg["output"]
    if out["csv_every"] < 1:
        err("output", "csv_every", "must be at least 1")
    for key in ("vtk_every", "checkpoint_every"):
        if out[key] < 0:
            err("output", key, "cadences must be nonnegative (0 disables)")


def parse_config_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
