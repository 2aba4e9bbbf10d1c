"""Host-speed probe: scales the benchmark's wall times to a reference speed.

The benchmark shares its host with other work, and the host's speed
drifts: the same step takes 50 ms in one ten-second stretch and 90 ms in
the next, and a pure-Python loop, a BLAS product, an einsum and a sparse
LU all slow down together (see NOTES.md).  A median over a 30 s run
cannot average that away, because a slow stretch can cover most of a
run.

So a run times a fixed reference computation, made of numpy and scipy
calls only and no dualflow code, at the end of set-up, after every step
and after every `driver.run` call, always outside the timed intervals.
Each timed interval is then scaled by REF_MS / (median probe time around
it).  A reported time reads "wall time at the host speed where the probe
takes REF_MS".  A change to dualflow moves the interval and not the
probe, so it shows in full; a change of host speed moves both, and
cancels.
"""

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REF_MS = 5.0   # probe time that defines the reference speed
WINDOW = 3     # probes on each side of an interval that set its speed
LOOP = 5000    # iterations of the interpreter part of the probe


def _laplacian(n):
    """Shifted 5-point Laplacian on an n x n grid, in CSC."""
    ones = np.ones(n)
    t = sp.diags([-ones[1:], 2.0 * ones, -ones[1:]], [-1, 0, 1])
    eye = sp.identity(n)
    return (sp.kron(eye, t) + sp.kron(t, eye) + 0.01 * sp.identity(n * n)).tocsc()


class Pace:
    """Runs the probe and keeps every probe time of a run, in order."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = _laplacian(30)
        self._rhs = np.ones(self._matrix.shape[0])
        self._basis = rng.standard_normal((16, 10))
        self._values = rng.standard_normal((1000, 16, 10))
        self.times = []   # seconds per probe
        self._work()      # first calls load and allocate; not recorded

    def _work(self):
        # the step's three kinds of work: sparse LU, element-batched
        # einsum, and interpreter overhead
        spla.splu(self._matrix).solve(self._rhs)
        np.einsum("qi,eqj->eij", self._basis, self._values)
        total = 0
        for i in range(LOOP):
            total += i * i
        return total

    def probe(self):
        """Time the probe once; return its index."""
        t0 = time.perf_counter()
        self._work()
        self.times.append(time.perf_counter() - t0)
        return len(self.times) - 1

    def probe_s(self, at):
        """Median probe time around an interval that probe `at` closed."""
        return statistics.median(self.times[max(0, at - WINDOW):at + WINDOW])

    def scale(self, seconds, at):
        """Interval of `seconds` closed by probe `at`, at the reference speed."""
        return seconds * 1e-3 * REF_MS / self.probe_s(at)

    def speed(self, ats):
        """Factor that scales wall time spent around probes `ats` to the reference speed."""
        return 1e-3 * REF_MS / statistics.median(self.times[at] for at in ats)
