"""Host-speed calibration for the end-to-end op timings.

The benchmark runs on shared hosts whose speed drifts by 20-45 % over tens
of seconds; it shows as longer CPU time, not as waiting, so no wall-clock
statistic inside one run removes it. A fixed piece of reference work, timed
between ops, measures the host's current speed; an op's calibrated time is
its wall time scaled by ``REFERENCE_S`` over the mean of the timings just
before and just after it. The reference work mixes what the workloads
spend their time on: a vectorised compare/select/min (the depth kernels),
2x2 eigendecompositions in a Python loop (per-point geometry), and a
pure-Python dict loop (the interpreter-bound layers). It does not use
``metricdepth``, so a change to the library cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of one call of the reference work on the 2-core host the
# benchmark was defined on; calibrated seconds are seconds at that speed.
REFERENCE_S = 0.018
CALLS = 2


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._dist = rng.random((16, 400))
        self._counts = rng.integers(0, 400, (400, 400)).astype(np.int32)
        mats = rng.random((64, 2, 2))
        self._spd = mats @ np.swapaxes(mats, 1, 2) + np.eye(2)

    def _work(self) -> float:
        d = self._dist
        np.where(d[:, :, None] <= d[:, None, :], self._counts[None], 401).min(axis=(1, 2))
        total = 0.0
        for m in self._spd:
            eigval, _ = np.linalg.eigh(m)
            total += float(np.log(eigval).sum())
        table = {}
        for i in range(20000):
            table[i % 97] = table.get(i % 97, 0) + i
        return total

    def seconds(self) -> float:
        """Wall time of one call of the reference work, averaged over CALLS."""
        start = time.perf_counter()
        for _ in range(CALLS):
            self._work()
        return (time.perf_counter() - start) / CALLS
