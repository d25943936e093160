"""Host-speed gauge: a fixed kernel timed next to every measured point.

On a shared host the same code runs at different speeds from one second
to the next, and a run's share of slow seconds drifts over minutes.  The
gauge measures that speed where the point ran.  It times four fixed
kernels, one for each kind of work the package does: banded LU solves
(LAPACK), a pure-Python loop (the interpreter), numpy ufuncs on arrays of
one mesh (many small calls), and a cumulative sum over a larger array
(memory traffic).  Their inputs are fixed here and independent of the
package, so no change to the package can move the gauge.

A point's reference time is its wall time scaled by REF_S over the mean
of the gauge readings taken just before and just after it: the time the
point would take on a host where the gauge reads REF_S.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import solve_banded

REF_S = 5.0e-3  # near the median reading between points on a 2.1 GHz Xeon VM shared with other tenants
_BAND = (5, 5)  # the band of the package's Newton systems
_N = 2000  # nodes of the default mesh
_SOLVES = 5
_LOOP = 20000
_UFUNCS = 40
_SWEEPS = 10


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._ab = rng.random((sum(_BAND) + 1, _N))
        self._ab[_BAND[0]] += 2.0 * sum(_BAND)  # diagonally dominant
        self._b = rng.random(_N)
        self._x = rng.random(_N)
        self._y = rng.random(_N)
        self._big = rng.random(8 * _N)

    def __call__(self) -> float:
        """Seconds the four kernels take now."""
        t0 = time.perf_counter()
        for _ in range(_SOLVES):
            solve_banded(_BAND, self._ab, self._b)
        s = 0
        for i in range(_LOOP):
            s += i * i
        x, y = self._x, self._y
        for _ in range(_UFUNCS):
            (np.sin(x) * y + np.exp(-x) * x).sum()
        for _ in range(_SWEEPS):
            np.cumsum(self._big * self._big)[::2].sum()
        return time.perf_counter() - t0
