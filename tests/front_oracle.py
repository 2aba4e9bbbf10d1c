"""The front sampler as first built, kept as an oracle for
diagnostics.FrontTracker: the reference coordinates of every (column,
candidate cell) pair by a batched 2x2 matmul, the lowest containing
cell from np.unique, and the CSR matrix from its COO entries."""

import numpy as np
import scipy.sparse as sp

from dualflow.diagnostics import FRONT_SAMPLES, LOCATE_TOL
from dualflow.quadrature import interval_rule


def front_sampler(mesh, space):
    """(columns, sampler) of the depth averages on `space` over `mesh`."""
    xmin, xmax, ymin, ymax = mesh.bbox
    num_columns = max(2, int(round((xmax - xmin) / mesh.h_min())))
    columns = np.linspace(xmin, xmax, num_columns + 1)
    t, w = interval_rule(2 * FRONT_SAMPLES - 1)
    ys = ymin + t * (ymax - ymin)
    lo, hi = mesh.cell_coords[..., 0].min(axis=1), mesh.cell_coords[..., 0].max(axis=1)
    reach = 4 * LOCATE_TOL * (hi - lo)
    col, cand = np.nonzero((lo - reach <= columns[:, None]) & (columns[:, None] <= hi + reach))
    pts = np.stack(np.broadcast_arrays(columns[col, None], ys), axis=-1)  # (pairs, ys, 2)
    _, _, Jinv = mesh.jacobians()
    refs = (Jinv[cand, None] @ (pts - mesh.cell_coords[cand, None, 0])[..., None])[..., 0]
    pair, k = np.nonzero((refs >= -LOCATE_TOL).all(axis=-1) & (refs.sum(axis=-1) <= 1.0 + LOCATE_TOL))
    # pairs run column by column, cells ascending: a point's first hit is its lowest cell
    found, first = np.unique(col[pair] * len(ys) + k, return_index=True)
    missing = np.setdiff1d(np.arange(len(columns) * len(ys)), found)
    if len(missing):
        x, y = columns[missing[0] // len(ys)], ys[missing[0] % len(ys)]
        raise ValueError(f"front sample point ({x}, {y}) not inside the mesh")
    pair, k = pair[first], k[first]
    bv, _ = space.element.tabulate(refs[pair, k])
    rows = np.repeat(np.arange(len(columns)), len(ys) * bv.shape[1])
    vals = np.tile(w, len(columns))[:, None] * bv
    return columns, sp.csr_matrix((vals.ravel(), (rows, space.cell_dofs[cand[pair]].ravel())),
                                  shape=(len(columns), space.dim))
