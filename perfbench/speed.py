"""The machine's speed, sampled next to each operation.

The benchmark runs on shared hosts, where identical work can take up to
1.7 times longer in episodes of half a second to a few seconds, as
neighbours come and go.  Wall-clock times of whole runs then spread by a
quarter or more.  Each measured run therefore times a fixed reference
kernel between operations and reports, beside the raw times, each
operation's time scaled by REFERENCE_S over the kernel time measured
around it: the time the operation would take on a machine that runs the
kernel in REFERENCE_S.

The kernel does interpreter work and small numpy calls, the mix the
library spends its time on, and does not touch the package, so a change
to the package cannot change the scale.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

REFERENCE_S = 0.5e-3
# Kernel samples at most this often; slow episodes last longer than this.
MIN_GAP_S = 0.02


def kernel() -> float:
    u = np.array([0.3, -1.2, 0.5])
    v = np.array([1.1, 0.4, -0.7])
    total = 0.0
    for k in range(20):
        c = np.cross(u, v)
        total += float(np.linalg.norm(c)) + math.sqrt(abs(float(u @ v)) + k)
        total += sum([float(x) for x in c])
    return total


def _timed() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Speedometer:
    """Kernel time now: the best of three runs, refreshed at most every MIN_GAP_S."""

    def __init__(self):
        self.samples = []
        self._at = -math.inf

    def sample(self) -> float:
        if perf_counter() - self._at >= MIN_GAP_S:
            # the best of three drops runs an interrupt landed in
            self.samples.append(min(_timed() for _ in range(3)))
            self._at = perf_counter()
        return self.samples[-1]


def scaled(seconds: float, before: float, after: float) -> float:
    """An operation's time at reference speed, from the kernel times around it."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
