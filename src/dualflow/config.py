"""Run configuration: INI-style text with strict validation.

Format: `[section]` headers, `key = value` lines, `#` comments.  Unknown
sections or keys, keys the chosen mode never reads, type mismatches,
non-finite floats and constraint violations are fatal and reported with
their line number.
"""

import math
from dataclasses import dataclass

from .stepper import whole_steps


class ConfigError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


# (type, default) per key; REQUIRED means the key must be present.
REQUIRED = object()

SCHEMA = {
    "mesh": {
        "length": (float, REQUIRED),
        "height": (float, 1.0),
        "lock_length": (float, 1.0),
        "nx": (int, None),  # required unless the mesh is imported
        "ny": (int, None),
        "pattern": (str, "left"),
        "import": (str, None),
    },
    "physics": {
        "mode": (str, "turbidity"),
        "grashof": (float, 5.0e6),
        "schmidt": (float, 1.0),
        "settling_velocity": (float, 0.02),
        "nu": (float, 0.0),
    },
    "discretization": {
        "degree": (int, 2),
    },
    "time": {
        "dt": (float, REQUIRED),
        "t_end": (float, REQUIRED),
    },
    "initial": {
        "interface_width": (float, None),
        "kind": (str, None),  # lock | taylor_green | random; default by mode
        "seed": (int, 0),
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
                    ("mesh", "import"), ("initial", "interface_width")),
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
        typ, _default = SCHEMA[section][key]
        try:
            if typ is int:
                parsed = int(val)
            elif typ is float:
                parsed = float(val)
            else:
                parsed = val
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
        out = {}
        got = values.get(sec, {})
        for key, (typ, default) in keys.items():
            if key in got:
                out[key] = got[key]
            elif default is REQUIRED:
                raise ConfigError(f"required key {sec}.{key} is missing")
            else:
                out[key] = default
        cfg[sec] = out

    _validate(cfg, lines_of)
    return RunConfig(**cfg)


def _validate(cfg, lines_of):
    def err(sec, key, msg):
        raise ConfigError(f"{sec}.{key}: {msg}", lines_of.get((sec, key)))

    mesh, phys, time = cfg["mesh"], cfg["physics"], cfg["time"]
    if phys["mode"] not in UNREAD:
        err("physics", "mode", f"must be turbidity or homogeneous, got {phys['mode']!r}")
    for sec, key in UNREAD[phys["mode"]]:
        if (sec, key) in lines_of:
            err(sec, key, f"is not read in {phys['mode']} mode")
    for key in ("length", "height"):
        if mesh[key] <= 0:
            err("mesh", key, "channel extents must be positive")
    if phys["mode"] == "turbidity" and not (mesh["length"] > mesh["lock_length"] > 0):
        err("mesh", "lock_length", "need length > lock_length > 0")
    if mesh["import"] is not None:
        for sec, key in IMPORT_UNREAD:
            if (sec, key) in lines_of:
                err(sec, key, "is not read with mesh.import")
    else:
        if mesh["pattern"] not in ("left", "right", "crisscross"):
            err("mesh", "pattern", f"unknown pattern {mesh['pattern']!r}")
        min_n = 2 if phys["mode"] == "homogeneous" else 1
        for key in ("nx", "ny"):
            if mesh[key] is None:
                raise ConfigError(f"required key mesh.{key} is missing")
            if mesh[key] < min_n:
                err("mesh", key, f"resolution must be at least {min_n} in each direction")
    if phys["grashof"] <= 0:
        err("physics", "grashof", "must be positive")
    if phys["schmidt"] <= 0:
        err("physics", "schmidt", "must be positive")
    if phys["settling_velocity"] < 0:
        err("physics", "settling_velocity", "must be nonnegative")
    if phys["nu"] < 0:
        err("physics", "nu", "must be nonnegative")
    if cfg["discretization"]["degree"] < 1:
        err("discretization", "degree", "must be at least 1")
    if time["dt"] <= 0:
        err("time", "dt", "must be positive")
    if time["t_end"] < time["dt"]:
        err("time", "t_end", "must be at least one time step")
    if whole_steps(time["dt"], time["t_end"]) is None:
        err("time", "t_end", "must be a whole number of time steps, "
            f"got t_end / dt = {time['t_end'] / time['dt']:.10g}")
    init = cfg["initial"]
    if init["kind"] is None:
        init["kind"] = "lock" if phys["mode"] == "turbidity" else "taylor_green"
    if init["kind"] not in ("lock", "taylor_green", "random"):
        err("initial", "kind", f"unknown initial condition {init['kind']!r}")
    if phys["mode"] == "turbidity" and init["kind"] != "lock":
        err("initial", "kind", "turbidity mode uses the lock initial condition")
    if phys["mode"] == "homogeneous" and init["kind"] == "lock":
        err("initial", "kind", "homogeneous mode has no particles: use taylor_green or random")
    if init["kind"] != "random" and ("initial", "seed") in lines_of:
        err("initial", "seed", "is read only by kind = random")
    if init["seed"] < 0:
        err("initial", "seed", "must be nonnegative")
    if init["interface_width"] is not None and init["interface_width"] <= 0:
        err("initial", "interface_width", "must be positive")
    out = cfg["output"]
    if out["csv_every"] < 1:
        err("output", "csv_every", "must be at least 1")
    for key in ("vtk_every", "checkpoint_every"):
        if out[key] < 0:
            err("output", key, "cadences must be nonnegative (0 disables)")


def parse_config_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
