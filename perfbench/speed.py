"""Host-speed calibration, so that timings from different minutes can be compared.

On a shared host the speed of one core drifts by a third or more over tens
of seconds, and a fixed piece of pure-Python work slows down with it.  A
``Speedometer`` times such a unit again and again while the benchmark runs,
and ``scale`` turns seconds measured at some moment into *reference
seconds*: seconds at the speed at which one unit takes ``UNIT_REFERENCE_S``.

While ``ticking`` is active an interval timer runs one unit every
``TICK_S`` from a SIGALRM handler, in the main thread between bytecodes, so
long jobs are sampled while they run and no thread is started.  The time
spent in units is kept in ``paused_s`` and taken out of job times.  The
unit is benchmark code, not package code, so a change to the package moves
job times and leaves the scale alone.  The unit runs with the garbage
collector paused, and the runner fails any job that leaves a thread or a
trace hook behind, so the package cannot slow the unit down either.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from contextlib import contextmanager

#: Duration of one calibration unit on the reference host at undisturbed speed.
UNIT_REFERENCE_S = 0.0025

#: Interval between calibration units while ticking.
TICK_S = 0.1

#: Fewest units a local speed estimate is taken from.
MIN_UNITS = 3


def calibration_unit():
    """A fixed few milliseconds of interpreter work: integer arithmetic and dict stores."""
    acc = 0
    table = {}
    for i in range(20000):
        acc += i * i
        table[i & 255] = acc & 1023
    return acc


class Speedometer:
    """Times of the calibration unit, with the moment each was taken."""

    def __init__(self):
        self.starts = []
        self.timings = []
        self.paused_s = 0.0

    def sample(self, units=1):
        """Time the given number of units now, one after another."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(units):
                start = time.perf_counter()
                calibration_unit()
                end = time.perf_counter()
                self.starts.append(start)
                self.timings.append(end - start)
                self.paused_s += end - start
        finally:
            if enabled:
                gc.enable()

    def clock(self):
        """perf_counter minus the time spent in calibration units so far."""
        return time.perf_counter() - self.paused_s

    @contextmanager
    def ticking(self):
        """Sample every TICK_S of wall time until the block ends."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start=None, end=None):
        """Reference seconds per measured second, from the units taken in [start, end].

        With fewer than MIN_UNITS there, the MIN_UNITS units nearest to the
        interval's midpoint are used; without an interval, every unit is.
        """
        if start is None:
            return UNIT_REFERENCE_S / statistics.median(self.timings)
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if hi - lo < MIN_UNITS:
            mid = (start + end) / 2
            at = bisect.bisect_left(self.starts, mid)
            around = range(max(0, at - MIN_UNITS), min(len(self.starts), at + MIN_UNITS))
            nearest = sorted(around, key=lambda i: abs(self.starts[i] - mid))
            local = [self.timings[i] for i in nearest[:MIN_UNITS]]
        else:
            local = self.timings[lo:hi]
        return UNIT_REFERENCE_S / statistics.median(local)
