"""Machine-speed calibration for timings taken on a shared machine.

On a small shared virtual machine the same deterministic work runs up to
twice as slow in some minutes as in others, with no steal time to show for
it, so raw wall times of whole runs wander beyond any useful bound.  A short
fixed loop of `fractions.Fraction` elimination (the same kind of work as the
exact simplex, but the benchmark's own code, which no change to mosipcert can
speed up) is timed next to the work: before and after every operation and,
inside long operations, after an LP solve at most every INTERVAL_S.  An
operation's time scaled by REFERENCE_S / (median loop time over those
samples) is its time on a machine that runs the loop in REFERENCE_S.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# The reference speed: scaled times are what the work takes on a machine that
# runs calibration_loop in this long (near the loop's median on the 2-core
# machine the README figures come from).
REFERENCE_S = 0.004
INTERVAL_S = 0.1


def calibration_loop() -> Fraction:
    """Gauss-Jordan elimination of a fixed 9 x 10 rational matrix."""
    n = 9
    rows = [
        [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) + (3 if i == j else 0)
         for j in range(n + 1)]
        for i in range(n)
    ]
    for c in range(n):
        pivot = rows[c][c]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c] / pivot
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return rows[n - 1][n]


class Meter:
    """Calibration samples, and the count of calls into lp.solve."""

    def __init__(self) -> None:
        self.samples: list = []
        self.spent = 0.0  # seconds inside samples, to take out of timings
        self.solves = 0
        self.inner = True  # sample inside operations (off while tracing)
        self._last = 0.0

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the workload's heap is not machine speed
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def scale(self, first: int) -> float:
        """REFERENCE_S over the median loop time of samples[first:]."""
        return REFERENCE_S / statistics.median(self.samples[first:])

    def wrap_solve(self, original):
        def solve(prog):
            try:
                return original(prog)
            finally:
                self.solves += 1
                if self.inner and time.perf_counter() - self._last >= INTERVAL_S:
                    self.sample()

        return solve
