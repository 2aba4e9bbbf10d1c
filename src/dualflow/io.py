"""On-disk output: CSV time series, legacy-VTK snapshots, checkpoints.

CSV numbers use shortest round-trip formatting (Python repr), so rows
are bitwise reproducible and resume-exact.  Snapshot and checkpoint
arrays are raw float64 (big-endian in VTK, little-endian in checkpoints),
lossless by construction.  A checkpoint holds the named vectors of
SimulationState.vectors() and the run's identity; which vectors a state
holds, and of what length, is stepper.restore's to say.
"""

import hashlib
import os

import numpy as np

from .assemble import GRAVITY
from .diagnostics import ACCUMULATORS, CSV_COLUMNS
from .stepper import restore

CHECKPOINT_MAGIC = "DUALFLOW-CKPT"
CHECKPOINT_VERSION = 8


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


class CsvWriter:
    """Fixed-schema CSV, one row per emitted step: written anew from its
    header, or, `append`ing (a resume), after the rows already there."""

    def __init__(self, path, append=False):
        self._fh = open(path, "a" if append else "w", encoding="utf-8", newline="")
        if self._fh.tell() == 0:
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
    that `csv_every` selects are not all there, the header is not this
    version's, a complete row's step is not an integer, or a kept row is
    not the next that `csv_every` writes: a step off its multiples (the
    file was written with another csv_every), a gap or a repeat.
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
        for number, line in enumerate(iter(fh.readline, b""), start=2):
            if not line.endswith(b"\n"):
                break
            try:
                step = int(line.split(b",", 1)[0])
            except ValueError:
                raise CheckpointError(f"{path}, line {number}: the step field is not an "
                                      f"integer") from None
            if step > k:
                break
            if step != last + csv_every:
                raise CheckpointError(f"{path}, line {number}: a row of step {step} where "
                                      f"csv_every = {csv_every} writes step {last + csv_every}")
            last, keep = step, fh.tell()
        if last != expected:
            raise CheckpointError(f"{path} ends at step {last}; resuming at step {k} needs "
                                  f"its rows through step {expected}")
        fh.truncate(keep)


def read_csv(path):
    """CSV rows as a dict of numpy arrays keyed by column name; a row whose
    field count is not the header's (a torn row) raises ValueError naming
    the file and the line."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = [[] for _ in header]
        for number, line in enumerate(fh, start=2):
            tokens = line.strip().split(",")
            if len(tokens) != len(header):
                raise ValueError(f"{path}, line {number}: {len(tokens)} fields where the header "
                                 f"has {len(header)}")
            for slot, tok in zip(data, tokens):
                slot.append(float(tok))
    return {name: np.asarray(col) for name, col in zip(header, data)}


# ---------------------------------------------------------------------------
# Legacy VTK


def write_vtk(model, path, state, pressure, omega_tilde):
    """Binary legacy-VTK snapshot of one state of `model`'s run, with its
    pressure (Q coefficients) and weak curl (W coefficients, or None),
    each field read through the model's spaces.

    Point data: phi, omega, omega_tilde sampled at mesh vertices (CG
    vertex dofs).  Cell data: pressure reduced to its cell mean and
    velocity averaged at cell centroids (RT point values are
    tangentially discontinuous, so vertex sampling would be misleading).
    Each array follows its keyword line as big-endian float64 (int32 for
    CELLS and CELL_TYPES, as the format requires), then a newline.
    """
    U, mesh = model.U, model.mesh
    nv, nc = len(mesh.render_vertices), len(mesh.render_cells)

    def point_scalar(fld):
        if fld is None:
            return np.zeros(nv)
        return fld[mesh.render_vertex_map]  # CG vertex dofs come first

    def section(keywords, a, dtype=">f8"):
        return f"{keywords}\n".encode() + np.ascontiguousarray(a, dtype).tobytes() + b"\n"

    # the bytes through POINT_DATA and the RT table at the centroid are the
    # mesh's and the element's: built once per mesh and degree
    key = ("vtk", U.degree)
    if key not in mesh._cache:
        mesh._cache[key] = (b"".join([
            b"# vtk DataFile Version 3.0\n"
            b"dualflow snapshot (velocity as centroid averages; see package docs)\n"
            b"BINARY\nDATASET UNSTRUCTURED_GRID\n",
            section(f"POINTS {nv} double", np.c_[mesh.render_vertices, np.zeros(nv)]),
            section(f"CELLS {nc} {4 * nc}", np.c_[np.full(nc, 3), mesh.render_cells], ">i4"),
            section(f"CELL_TYPES {nc}", np.full(nc, 5), ">i4"),
            f"POINT_DATA {nv}\n".encode(),
        ]), U.element.tabulate(np.array([[1.0 / 3.0, 1.0 / 3.0]]))[0][0])
    head, rval = mesh._cache[key]

    J, det, _ = mesh.jacobians()
    ref = (U.cell_dof_signs * state.u_half[U.cell_dofs]) @ rval  # reference field at each centroid, (C, 2)
    vel = (J @ ref[:, :, None])[..., 0] / det[:, None]

    p_cell = pressure[model.Q.cell_dofs].mean(axis=1)  # DG_0 reduction

    parts = [head]
    parts += [section(f"SCALARS {name} double 1\nLOOKUP_TABLE default", point_scalar(fld))
              for name, fld in (("phi", state.phi), ("omega", state.omega), ("omega_tilde", omega_tilde))]
    parts += [section(f"CELL_DATA {nc}\nSCALARS pressure double 1\nLOOKUP_TABLE default", p_cell),
              section("VECTORS velocity double", np.c_[vel, np.zeros(nc)])]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


# ---------------------------------------------------------------------------
# Checkpoints


class CheckpointError(RuntimeError):
    pass


# what each part of a run's identity covers; the degree has a header line of its own
IDENTITY = {
    "mesh": "vertex coordinates, cells and wall tags",
    "physics": "mode, viscosity, diffusivity, settling velocity and gravity",
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

    The mesh digest is computed once per mesh; the physics digest hashes
    a few numbers.
    """
    mesh, phys = model.mesh, model.physics
    if "digest" not in mesh._cache:
        mesh._cache["digest"] = _digest(mesh.periodic, mesh.vertices, mesh.cells,
                                        mesh.cell_coords, mesh.edge_tags)
    u_s = phys.settling_velocity if phys.mode == "turbidity" else 0.0
    return {
        "mesh": mesh._cache["digest"],
        "physics": _digest(phys.mode, model.nu, model.kappa, u_s, GRAVITY),
    }


def save_checkpoint(path, state, engine, model):
    """Versioned header plus raw float64 vectors, one per field of
    state.vectors(); lossless round trip.

    Written to a temporary file in the same directory and renamed over
    `path`, so a crash mid-write leaves the previous checkpoint intact.
    """
    fields = {name: np.ascontiguousarray(v, dtype="<f8") for name, v in state.vectors().items()}
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
    `path` and the missing or bad header line, as do a negative step, a
    non-finite accumulator, a field named twice and a field with a
    non-finite value."""
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
        except (ValueError, OverflowError):  # a hex float past the largest float overflows
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
    if data["k"] < 0:
        raise CheckpointError(f"{path}: bad checkpoint header line 'k {data['k']}': the step is negative")
    nonfinite = " ".join(f"{name}={v}" for name, v in data["scalars"].items() if not np.isfinite(v))
    if nonfinite:
        raise CheckpointError(f"{path}: checkpoint scalars are not finite: {nonfinite}")
    names = parse("fields", str.split)
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise CheckpointError(f"{path}: checkpoint fields line names {' '.join(repeated)} twice")
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
        if not np.all(np.isfinite(data["fields"][name])):
            raise CheckpointError(f"{path}: checkpoint field {name!r} has non-finite values")
    return data


def restore_state(data, model):
    """Rebuild a SimulationState from checkpoint data written by the same
    run: mode, degree, dt and identity must match, and stepper.restore
    takes the fields, refusing any that are not the mode's state at step
    k, which the CheckpointError names."""
    if data["mode"] != model.physics.mode:
        raise CheckpointError(
            f"checkpoint mode {data['mode']!r} does not match configured {model.physics.mode!r}"
        )
    if data["degree"] != model.degree:
        raise CheckpointError("checkpoint polynomial degree does not match configuration")
    if data["dt"] != model.time.dt:
        raise CheckpointError("checkpoint time step does not match configuration")
    for part, digest in run_identity(model).items():
        if data["identity"].get(part) != digest:
            raise CheckpointError(
                f"checkpoint {part} ({IDENTITY[part]}) does not match the configured run"
            )
    try:
        return restore(model, data["k"], data["fields"])
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {exc}") from None
