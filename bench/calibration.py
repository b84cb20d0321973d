"""Host-speed calibration of the benchmark's timings.

On a small shared host the CPU's speed drifts by tens of percent, over
seconds and over minutes, with no change in the work done.  A fixed
reference kernel that does not touch spinbath is timed between ops, and
every timed interval (an op, a set-up interpreter, a traced op's spans)
is scaled by ``REFERENCE_KERNEL_S / (median of the last WINDOW kernel
times)``, sampled at least every ``SAMPLE_INTERVAL_S`` of timed time:
timings then read as seconds on a host where the kernel takes
``REFERENCE_KERNEL_S``.  A change to spinbath moves the op times and not
the kernel, so it shows in the scaled timings; a slower host moves both
and cancels.  The raw timings are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
from collections import deque
from time import perf_counter

import numpy as np

#: a fixed scale: about the kernel's time on the 2-vCPU 2.1 GHz Xeon host
#: the benchmark was defined on, with one BLAS thread
REFERENCE_KERNEL_S = 3.3e-3
#: op time between kernel samples, and samples in the running median
SAMPLE_INTERVAL_S = 0.25
WINDOW = 5

_MATRIX = np.random.default_rng(0).normal(size=(16, 16))


def kernel() -> float:
    """Interpreter-bound arithmetic plus small dense eigenproblems."""
    total = 0.0
    for i in range(20000):
        total += i * 0.5
    for _ in range(20):
        total += float(np.linalg.eigvals(_MATRIX).real.sum())
    return total


def time_kernel() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class HostSpeed:
    """Running median of recent kernel times, sampled as timed time accrues."""

    def __init__(self):
        self.samples = []
        self._recent = deque(maxlen=WINDOW)
        self._next_at = 0.0

    def sample(self) -> None:
        elapsed = time_kernel()
        self.samples.append(elapsed)
        self._recent.append(elapsed)

    def track(self, busy: float) -> float:
        """Sample the kernel if due at ``busy`` s of timed time; the scale factor.

        The first call fills the window, so every factor is a median of
        ``WINDOW`` samples.
        """
        if busy >= self._next_at:
            self.sample()
            while len(self._recent) < WINDOW:
                self.sample()
            self._next_at = busy + SAMPLE_INTERVAL_S
        return REFERENCE_KERNEL_S / statistics.median(self._recent)
