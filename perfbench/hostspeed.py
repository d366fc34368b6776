"""How fast the host runs this process right now, sampled through a run.

On a shared host the same pass can take anywhere from 1x to 2x its best
time, in spells that last from a second to a minute.  Two things slow it:
time the process waits for a CPU, which CPU time leaves out, and slower
execution while it runs, which CPU time includes.  The benchmark therefore
times calls in CPU seconds, and ``HostSpeed`` corrects for the second part:
it runs a fixed stdlib-only kernel (rational arithmetic and dict updates,
the bulk of disklab's own work; nothing of disklab) from a SIGALRM handler
every ``PERIOD`` seconds and records the kernel's CPU time, so the samples
cover long verbs as evenly as short ones.  ``reference(timing)`` turns the
CPU seconds of a call into reference seconds: seconds on a host where the
kernel takes ``REFERENCE_S``.  The handler's own CPU and wall time are
counted in ``spent_cpu`` and ``spent_wall`` so callers can take them out
of what they timed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.05
# kernel CPU time on an unloaded Intel Xeon (2.1 GHz) under Python 3.11
REFERENCE_S = 0.001


def kernel():
    """CPU seconds of one fixed piece of work."""
    start = time.thread_time()
    acc, table = Fraction(0), {}
    for i in range(1, 120):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
    for i in range(4000):
        table[i % 97] = table.get(i % 97, 0) + i
    return time.thread_time() - start


class HostSpeed:
    def __init__(self):
        self.times, self.kernel_s = [], []
        self.spent_cpu = self.spent_wall = 0.0

    def _tick(self, *_):
        start, cpu = time.perf_counter(), time.thread_time()
        self.kernel_s.append(kernel())
        self.times.append(start)
        self.spent_cpu += time.thread_time() - cpu
        self.spent_wall += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0, t1, at_least=5):
        """REFERENCE_S over the median kernel time sampled in [t0, t1],
        widened to the nearest ``at_least`` samples when the span is short."""
        lo, hi = bisect.bisect_left(self.times, t0), bisect.bisect_right(self.times, t1)
        while hi - lo < at_least and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return REFERENCE_S / statistics.median(self.kernel_s[lo:hi])

    def reference(self, timing):
        """Reference seconds of a call's Timing (see run.py)."""
        return timing.cpu * self.factor(timing.start, timing.end)
