"""A reader for the binary legacy-VTK snapshots that `io.write_vtk` emits.

It serves tests only, as `io.read_csv` does: it parses exactly the
layout the writer produces (four header lines, then keyword lines each
followed by a big-endian block and a newline) and refuses anything else.
"""

import numpy as np


def read_vtk(path):
    """Snapshot at `path` as a dict: "lines" holds every text line in file
    order, header first; every dataset follows, keyed by name in file
    order ("POINTS" (n, 3), "CELLS" (n, 4), "CELL_TYPES" (n,), then each
    SCALARS (n,) and VECTORS (n, 3) by its own name)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    pos = 0
    lines = []

    def line():
        nonlocal pos
        end = raw.index(b"\n", pos)
        text = raw[pos:end].decode("ascii")
        pos = end + 1
        lines.append(text)
        return text.split()

    def block(count, dtype):
        nonlocal pos
        size = count * np.dtype(dtype).itemsize
        a = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
        assert raw[pos + size:pos + size + 1] == b"\n", f"{path}: no newline after a block at byte {pos}"
        pos += size + 1
        return a.astype(dtype[1:])

    for _ in range(4):
        line()
    assert lines[0] == "# vtk DataFile Version 3.0", lines[0]
    assert lines[2:] == ["BINARY", "DATASET UNSTRUCTURED_GRID"], lines[2:]
    data = {"lines": lines}
    count = None
    while pos < len(raw):
        key, *args = line()
        if key == "POINTS":
            assert args[1] == "double"
            data[key] = block(3 * int(args[0]), ">f8").reshape(-1, 3)
        elif key == "CELLS":
            data[key] = block(int(args[1]), ">i4").reshape(int(args[0]), -1)
        elif key == "CELL_TYPES":
            data[key] = block(int(args[0]), ">i4")
        elif key in ("POINT_DATA", "CELL_DATA"):
            count = int(args[0])
        elif key == "SCALARS":
            assert args[1:] == ["double", "1"] and line() == ["LOOKUP_TABLE", "default"]
            data[args[0]] = block(count, ">f8")
        elif key == "VECTORS":
            assert args[1] == "double"
            data[args[0]] = block(3 * count, ">f8").reshape(-1, 3)
        else:
            raise AssertionError(f"{path}: unexpected keyword line {lines[-1]!r}")
    return data
