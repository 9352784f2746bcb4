"""Machine-speed calibration for the throughput metric.

On a shared machine the speed available to one process drifts by tens of
percent over minutes, which would swamp any change to the program. Three
fixed kernels, owned by the benchmark and independent of ``dasf``, are timed
between repetitions: Python object churn, element-wise NumPy over a 30x10^4
array, and small dense linear algebra. These are the three kinds of work a
dasf iteration does. None of them is big enough for BLAS to use threads, so
a thread policy set by the program does not change them. The kernels' speed
relative to REFERENCE_S converts each repetition's wall time into the time
it would have taken on the reference machine state.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median kernel times on the reference machine (2 cores, Python 3.11,
# NumPy 2.4, bundled OpenBLAS 0.3.31).
REFERENCE_S = {"python": 0.030, "elementwise": 0.020, "small_linalg": 0.022}


class Calibration:
    """Kernel inputs plus the speed factors sampled so far."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._wide = rng.standard_normal((30, 10_000))
        self._small = rng.standard_normal((12, 12))
        self._small = self._small @ self._small.T
        self.factors: list[float] = []

    def _python(self) -> None:
        table = {}
        for i in range(120_000):
            table[i % 997] = (i, i & 15)
        [x for x in range(180_000) if x % 3]

    def _elementwise(self) -> None:
        w = self._wide
        for _ in range(24):
            float(np.sum((w * 1.0001 + w) * w))

    def _small_linalg(self) -> None:
        s = self._small
        for _ in range(750):
            np.linalg.eigh(s[:10, :10])
            np.vstack([s @ s[:, :3], s[:2, :3]])

    def sample(self) -> float:
        """Time each kernel once and record the mean of its time over its
        reference time: above 1 when the machine is slower than reference."""
        ratios = []
        for name, kernel in (("python", self._python), ("elementwise", self._elementwise),
                             ("small_linalg", self._small_linalg)):
            t = perf_counter()
            kernel()
            ratios.append((perf_counter() - t) / REFERENCE_S[name])
        self.factors.append(statistics.fmean(ratios))
        return self.factors[-1]

    def reference_times(self, walls: list[float]) -> list[float]:
        """Wall time of each repetition divided by the mean slowdown sampled
        just before and just after it (one sample more than repetitions)."""
        if len(self.factors) != len(walls) + 1:
            raise ValueError("need one calibration sample around every repetition")
        f = self.factors
        return [w / (0.5 * (f[i] + f[i + 1])) for i, w in enumerate(walls)]
