"""How busy the host was during a run: a note, never a correction.

The sandbox's host slows the same code by 10-50 % for minutes at a time
(other tenants of the machine).  Every metric is reported as measured; a run
also times a fixed calibration kernel (interpreter and numpy work in about
the mix of an ``answer()``) before and after its work and prints the
kernel's median time over its time on a quiet seed machine as
``host_slowdown``, so that a run taken on a busy host can be told from a
slower program, discarded and run again.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

# The kernel's median time on the seed machine in a quiet quarter-hour.
NOMINAL_MS = 0.65
SAMPLES = 15

_VALUES = np.random.default_rng(0).random(20_000)


def _kernel() -> None:
    total, seen = 0, {}
    for i in range(4000):
        total += i * i
        seen[i & 63] = total
    order = np.argsort(_VALUES)
    float(np.cumsum(_VALUES[order] * 1.5)[-1])


def kernel_samples(count: int = SAMPLES) -> List[float]:
    """Time the kernel ``count`` times, in ms, after one untimed pass."""
    _kernel()
    samples = []
    for __ in range(count):
        start = time.perf_counter()
        _kernel()
        samples.append((time.perf_counter() - start) * 1e3)
    return samples


def slowdown(samples: List[float]) -> float:
    """How much slower than the quiet seed machine the host ran."""
    return statistics.median(samples) / NOMINAL_MS
