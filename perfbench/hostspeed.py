"""Sampling of the host's speed while the program runs.

The benchmark host is a shared VM whose speed swings by up to 2x for
seconds to minutes at a time, uniformly across the kinds of code the
program runs (measured: a small Fraction loop and a curvature computation
slow down together).  Wall times alone then vary more between runs than any
optimisation worth measuring.  `HostSpeed` runs a fixed probe loop from a
SIGALRM handler every `PERIOD_S` seconds of wall time, inside the same
process and thread, and records how long it took.  The probe loop does not
use the program, so its duration only depends on the host.

`normalized` divides an interval of program time by the mean slowdown seen
by the probes in it, counting the probes taken just before and after it:
the result is the time the interval would have taken at the reference speed
`REF_PROBE_S`.  The time spent in the probes is accounted separately and
never counted as program time.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.25
# Duration of one probe on an uncontended host of the kind the reference
# figures were measured on (2-core VM, Python 3.11); fast-phase median.
REF_PROBE_S = 0.0015


def probe():
    """Fixed work in the interpreter's Fraction and dict paths."""
    s = Fraction(0)
    d = {}
    for i in range(1, 300):
        s += Fraction(1, i % 97 + 1) * Fraction(i % 13, 7)
        d[i & 63] = s
    return s


class HostSpeed:
    """Probe samples (mid time, slowdown) and the total time spent probing."""

    def __init__(self):
        self.times = array("d")
        self.slowdowns = array("d")
        self.probe_s = 0.0
        self._busy = False

    def sample(self):
        """Run the probe once and record its slowdown."""
        if self._busy:  # the timer fired inside a sample taken by the caller
            return
        self._busy = True
        start = perf_counter()
        probe()
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.slowdowns.append((end - start) / REF_PROBE_S)
        self.probe_s += end - start
        self._busy = False

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.sample()

    def stop(self):
        """Disarm the timer.  The handler stays installed, so an alarm that
        was already pending is still handled rather than left to the
        default action, which would end the process."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()

    def slowdown(self, start, end):
        """Mean slowdown of the probes in [start, end]; for an interval
        shorter than the period, the mean of the probes on either side."""
        lo = bisect_left(self.times, start)
        hi = bisect_right(self.times, end)
        if hi - lo < 2:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        window = self.slowdowns[lo:hi]
        return sum(window) / len(window)

    def normalized(self, start, end, program_s):
        return program_s / self.slowdown(start, end)
