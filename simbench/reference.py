"""Host-speed reference: a fixed piece of work timed next to every run.

The host a benchmark shares can run the same code at speeds that differ
by half from one minute to the next, in regimes longer than a run.  Each
repetition therefore times :func:`kernel` just before and just after its
timed path, and reports its times scaled by :data:`REFERENCE_S` over the
kernel's median: seconds at the host speed where the kernel takes
``REFERENCE_S``.  A change to the measured program moves the scaled
times as much as the raw ones; a change in host speed moves the kernel
as well and cancels.

The kernel uses nothing from ``src/``, so no commit under test can change
it.  It spends about half its time on small numpy array updates of the
kind predictor training makes, and half reading a dict and an array
larger than the caches out of order, as the simulator's large working
set does.  That mix was chosen by measurement: the host's slow spells
slow memory-bound code more than code that stays in the caches, and a
pure-Python part of small objects and method calls tracked the
simulator less well than either of these.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median seconds of one :func:`sample` on the 2-vCPU VM the benchmark
#: was built on (Intel Xeon, Python 3.11).  Scaled times are seconds at
#: that speed.
REFERENCE_S = 0.10

#: Samples taken before, and again after, each timed path.
SAMPLES = 3


def _small_arrays() -> float:
    """Adam-style updates of small arrays, as in predictor training."""
    weights = np.linspace(-1.0, 1.0, 48).reshape(12, 4)
    inputs = np.linspace(0.0, 2.0, 96).reshape(8, 12)
    first = np.zeros_like(weights)
    second = np.zeros_like(weights)
    for step in range(1, 121):
        grad = inputs.T @ np.tanh(inputs @ weights) / 8.0
        first *= 0.9
        first += 0.1 * grad
        second *= 0.999
        second += 0.001 * grad * grad
        weights -= 1e-3 * (first / (1.0 - 0.9**step)) / (
            np.sqrt(second / (1.0 - 0.999**step)) + 1e-8
        )
    return float(weights.sum())


def _memory() -> float:
    """A dict and an array larger than the caches, read out of order."""
    size = 150_000
    table = {i: (i * 2654435761) % 1000003 for i in range(size)}
    key = total = 1
    for _ in range(size):
        key = table[key % size]
        total += key
    array = np.arange(2_000_000, dtype=np.float64)
    picks = (np.arange(200_000) * 7919) % len(array)
    return total + float(array[picks].sum())


def kernel() -> float:
    """The reference work: small arrays, then memory, about equal in time."""
    total = sum(_small_arrays() for _ in range(24))
    return total + _memory()


def sample() -> float:
    """Seconds for one kernel call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def samples() -> list[float]:
    return [sample() for _ in range(SAMPLES)]


def scale(before: list[float], after: list[float]) -> float:
    """Factor that turns this host's seconds into reference seconds."""
    return REFERENCE_S / statistics.median(before + after)
