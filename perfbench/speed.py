"""Times in reference seconds, corrected for the host's drifting speed.

The benchmark host is shared and its speed drifts by about 25% either way
over minutes: the same dichotomy on V took 0.28-0.46 s as medians of
4-second windows in one process.  A fixed pure-Python loop that never
touches vtrees drifts with it; in the same windows the ratio of the two
stayed within about 5%.  So every timed region is bracketed by timings of
that loop, and its wall time is scaled by ``REFERENCE_S`` over the mean of
the two: the result is the region's time at the speed at which the loop
takes ``REFERENCE_S``.  The loop is part of the benchmark, not of the
library, so a change to vtrees moves these times as it would move wall
times on a machine of constant speed.  Wall times are printed alongside.
"""

import gc
import statistics
from time import perf_counter

REFERENCE_S = 0.02  # never change: it fixes the unit of every time metric
LOOP_REPS = 3


def _fib(n):
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def _loop():
    counts = {}
    for i in range(20_000):
        key = (i % 7, i % 13, (i * 31) % 101)
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return len(ranked) + _fib(16)


def calibrate():
    """Median wall time of the reference loop.  The collector is off while
    it runs, so its time does not depend on how much the process holds."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(LOOP_REPS):
            t = perf_counter()
            _loop()
            times.append(perf_counter() - t)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Clock:
    """Times consecutive regions; the calibration after one region is the
    calibration before the next."""

    def __init__(self):
        self.last = calibrate()
        self.factors = []

    def time(self, fn, *args):
        """(result, reference seconds) of ``fn(*args)``."""
        t = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t
        return result, wall * self.next_factor()

    def next_factor(self):
        """Reference seconds per wall second over the region that ended
        just now."""
        before, self.last = self.last, calibrate()
        factor = 2 * REFERENCE_S / (before + self.last)
        self.factors.append(factor)
        return factor
