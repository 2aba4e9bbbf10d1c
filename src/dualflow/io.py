"""On-disk output: CSV time series, legacy-VTK snapshots, checkpoints.

All floating-point text uses shortest round-trip formatting (Python
repr), so CSV rows are bitwise reproducible and resume-exact; checkpoint
arrays are raw little-endian float64, lossless by construction.
"""

import hashlib
import os

import numpy as np

from .assemble import GRAVITY
from .diagnostics import ACCUMULATORS, CSV_COLUMNS

CHECKPOINT_MAGIC = "DUALFLOW-CKPT"
CHECKPOINT_VERSION = 2


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


class CsvWriter:
    """Append-only fixed-schema CSV; one row per emitted step."""

    def __init__(self, path):
        self.path = path
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        self._fh = open(path, "a", encoding="utf-8", newline="")
        if not exists:
            self._fh.write(",".join(CSV_COLUMNS) + "\n")
            self._fh.flush()

    def write_row(self, row):
        self._fh.write(",".join(_fmt(v) for v in row.csv_values()) + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()


def truncate_csv_for_resume(path, k, csv_every):
    """Prepare `path` for a run resumed at step k.

    Drops the rows after step k (an earlier run went past k, or crashed
    after writing them) and a torn last line, so the resumed run appends
    exactly what an uninterrupted run writes.  Refuses with
    CheckpointError when the rows through the last step at or before k
    that `csv_every` selects are not all there, or the header is not
    this version's.
    """
    expected = (k // csv_every) * csv_every
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        if expected > 0:
            raise CheckpointError(f"{path} is missing; resuming at step {k} needs its rows "
                                  f"through step {expected}")
        return
    with open(path, "r+b") as fh:
        header = fh.readline()
        if header != (",".join(CSV_COLUMNS) + "\n").encode("ascii"):
            raise CheckpointError(f"{path} does not start with the expected CSV header")
        keep = fh.tell()
        last = 0
        for line in iter(fh.readline, b""):
            if not line.endswith(b"\n"):
                break
            step = int(line.split(b",", 1)[0])
            if step > k:
                break
            last, keep = step, fh.tell()
        if last != expected:
            raise CheckpointError(f"{path} ends at step {last}; resuming at step {k} needs "
                                  f"its rows through step {expected}")
        fh.truncate(keep)


def read_csv(path):
    """CSV rows as a dict of numpy arrays keyed by column name."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = [[] for _ in header]
        for line in fh:
            for slot, tok in zip(data, line.strip().split(",")):
                slot.append(float(tok))
    return {name: np.asarray(col) for name, col in zip(header, data)}


# ---------------------------------------------------------------------------
# Legacy VTK


def write_vtk(state, path):
    """ASCII legacy-VTK snapshot of one simulation state.

    Point data: phi, omega, omega_tilde sampled at mesh vertices (CG
    vertex dofs).  Cell data: pressure reduced to its cell mean and
    velocity averaged at cell centroids (RT point values are
    tangentially discontinuous, so vertex sampling would be misleading).
    """
    u = state.u_half
    U = u.space
    mesh = U.mesh
    verts = mesh.render_vertices
    cells = mesh.render_cells
    vmap = mesh.render_vertex_map
    nv, nc = len(verts), len(cells)

    def point_scalar(fld):
        if fld is None:
            return np.zeros(nv)
        return fld.coefficients[vmap]  # CG vertex dofs come first

    J, det, _ = mesh.jacobians()
    rval, _ = U.element.tabulate(np.array([[1.0 / 3.0, 1.0 / 3.0]]))
    phys = np.einsum("cde,ne->cnd", J, rval[0]) / det[:, None, None]
    phys *= U.cell_dof_signs[:, :, None]
    vel = np.einsum("cnd,cn->cd", phys, u.coefficients[U.cell_dofs])

    if state.p_bar is not None:
        Q = state.p_bar.space
        pc = state.p_bar.coefficients[Q.cell_dofs]
        pressure = pc.mean(axis=1)  # DG_0 reduction: cell mean
    else:
        pressure = np.zeros(nc)

    lines = [
        "# vtk DataFile Version 3.0",
        "dualflow snapshot (velocity as centroid averages; see package docs)",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv} double",
    ]
    for x, y in verts:
        lines.append(f"{_fmt(x)} {_fmt(y)} 0.0")
    lines.append(f"CELLS {nc} {4 * nc}")
    for a, b, c in cells:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {nc}")
    lines.extend(["5"] * nc)
    lines.append(f"POINT_DATA {nv}")
    for name, fld in (("phi", state.phi), ("omega", state.omega), ("omega_tilde", state.omega_tilde)):
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(_fmt(v) for v in point_scalar(fld))
    lines.append(f"CELL_DATA {nc}")
    lines.append("SCALARS pressure double 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(_fmt(v) for v in pressure)
    lines.append("VECTORS velocity double")
    for vx, vy in vel:
        lines.append(f"{_fmt(vx)} {_fmt(vy)} 0.0")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Checkpoints


class CheckpointError(RuntimeError):
    pass


_FIELD_ORDER = ("u_half", "omega", "phi", "p_bar", "omega_tilde")

# what each part of a run's identity covers
IDENTITY = {
    "mesh": "vertex coordinates, cells and wall tags",
    "physics": "mode, viscosity, diffusivity, settling velocity and gravity",
    "discretization": "degree and sign convention",
}


def _digest(*items):
    h = hashlib.sha256()
    for item in items:
        a = np.ascontiguousarray(item)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def run_identity(model):
    """Digest of each IDENTITY part of the run `model` computes.

    The mesh digest is computed once per mesh; the other two hash a few
    numbers.
    """
    mesh, phys = model.mesh, model.physics
    if "digest" not in mesh._cache:
        mesh._cache["digest"] = _digest(mesh.periodic, mesh.vertices, mesh.cells,
                                        mesh.cell_coords, mesh.edge_tags)
    u_s = phys.settling_velocity if phys.mode == "turbidity" else 0.0
    return {
        "mesh": mesh._cache["digest"],
        "physics": _digest(phys.mode, model.nu, model.kappa, u_s, GRAVITY),
        # the sign convention is fixed; hashed so older checkpoints still match
        "discretization": _digest(model.degree, False),
    }


def save_checkpoint(path, state, engine, model):
    """Versioned header plus raw float64 dof vectors; lossless round trip.

    Written to a temporary file in the same directory and renamed over
    `path`, so a crash mid-write leaves the previous checkpoint intact.
    """
    fields = {}
    for name in _FIELD_ORDER:
        fld = getattr(state, name)
        if fld is not None:
            fields[name] = np.ascontiguousarray(fld.coefficients, dtype="<f8")
    scalars = {name: getattr(engine, name) for name in ACCUMULATORS}
    header = [
        f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}",
        f"mode {model.physics.mode}",
        f"degree {model.degree}",
        f"k {state.k}",
        f"dt {float(model.time.dt).hex()}",
        "identity " + " ".join(f"{k}={v}" for k, v in run_identity(model).items()),
        "fields " + " ".join(fields),
        "dims " + " ".join(str(len(v)) for v in fields.values()),
        "scalars " + " ".join(f"{k}={float(v).hex()}" for k, v in scalars.items()),
        "END",
    ]
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(("\n".join(header) + "\n").encode("ascii"))
            for v in fields.values():
                fh.write(v.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Read a checkpoint; a malformed file raises CheckpointError naming
    `path` and the missing or bad header line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.find(b"END\n")
    if end < 0:
        raise CheckpointError(f"{path}: checkpoint header is missing its END marker")
    try:
        header = raw[:end].decode("ascii").splitlines()
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: checkpoint header is not ASCII text") from None
    first = header[0].split() if header else []
    if not first or first[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a dualflow checkpoint")
    if first[1:] != [str(CHECKPOINT_VERSION)]:
        raise CheckpointError(f"{path}: unsupported checkpoint version line {header[0]!r}")
    meta = {}
    for line in header[1:]:
        key, _, rest = line.partition(" ")
        meta[key] = rest

    def parse(key, convert):
        if key not in meta:
            raise CheckpointError(f"{path}: checkpoint header has no {key!r} line")
        try:
            return convert(meta[key])
        except ValueError:
            raise CheckpointError(f"{path}: bad checkpoint header line "
                                  f"{key + ' ' + meta[key]!r}") from None

    def pairs(text, convert=str):
        return {k: convert(v) for k, _, v in (tok.partition("=") for tok in text.split())}

    data = {
        "mode": parse("mode", str),
        "degree": parse("degree", int),
        "k": parse("k", int),
        "dt": parse("dt", float.fromhex),
        "identity": parse("identity", pairs),
        "scalars": parse("scalars", lambda text: pairs(text, float.fromhex)),
    }
    missing = [name for name in ACCUMULATORS if name not in data["scalars"]]
    if missing:
        raise CheckpointError(f"{path}: checkpoint scalars line lacks {' '.join(missing)}")
    names = parse("fields", str.split)
    dims = parse("dims", lambda text: [int(d) for d in text.split()])
    if len(dims) != len(names) or min(dims, default=0) < 0:
        raise CheckpointError(f"{path}: checkpoint dims {dims} do not fit fields {names}")
    blob = raw[end + 4:]
    expected = 8 * sum(dims)
    if len(blob) != expected:
        raise CheckpointError(f"{path}: checkpoint payload is {len(blob)} bytes, "
                              f"expected {expected}")
    data["fields"] = {}
    off = 0
    for name, dim in zip(names, dims):
        data["fields"][name] = np.frombuffer(blob, dtype="<f8", count=dim, offset=off).copy()
        off += 8 * dim
    return data


def restore_state(data, model):
    """Rebuild a SimulationState from checkpoint data written by the same
    run: mode, degree, dt, identity and field lengths must all match, and
    the fields must hold the mode's state: u_half, omega, and phi if and
    only if in turbidity mode."""
    from .spaces import Field
    from .stepper import SimulationState

    if data["mode"] != model.physics.mode:
        raise CheckpointError(
            f"checkpoint mode {data['mode']!r} does not match configured {model.physics.mode!r}"
        )
    if data["degree"] != model.degree:
        raise CheckpointError("checkpoint polynomial degree does not match configuration")
    if abs(data["dt"] - model.time.dt) > 0.0:
        raise CheckpointError("checkpoint time step does not match configuration")
    for part, digest in run_identity(model).items():
        if data["identity"].get(part) != digest:
            raise CheckpointError(
                f"checkpoint {part} ({IDENTITY[part]}) does not match the configured run"
            )
    spaces = {"u_half": model.U, "omega": model.W, "p_bar": model.Q, "omega_tilde": model.W}
    needed = ["u_half", "omega"]
    if model.physics.mode == "turbidity":
        spaces["phi"] = model.W
        needed.append("phi")
    for name in needed:
        if name not in data["fields"]:
            raise CheckpointError(f"checkpoint has no field {name!r}, which a "
                                  f"{model.physics.mode} state needs")
    kwargs = {}
    for name, coef in data["fields"].items():
        if name not in spaces:
            raise CheckpointError(f"checkpoint field {name!r} is not a state field")
        space = spaces[name]
        if len(coef) != space.dim:
            raise CheckpointError(
                f"field {name!r} has {len(coef)} dofs, expected {space.dim}"
            )
        kwargs[name] = Field(space, coef)
    return SimulationState(k=data["k"], **kwargs)
