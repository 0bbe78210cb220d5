"""A CPU-speed probe that rescales measured intervals to a reference speed.

On a shared host other tenants slow this process down by a factor that
changes from second to second (on the 2-core machine these figures were
taken on, a fixed loop ran between 1.0x and 2.2x its fastest time, in
phases of a few seconds).  Medians of raw wall time then spread by 20 % and
more between runs, so they cannot show a regression of that size.

The probe runs a fixed pure-Python loop in this process every
``PERIOD_S`` seconds, from a timer signal, and records how much longer than
``REFERENCE_S`` it took.  The loop runs at the same moment on the same CPU
as the workload, so it sees the same slowdown.  :meth:`SpeedProbe.scaled`
divides each stretch of an interval by the factor measured at its start,
which gives the seconds the interval would have taken at the reference
speed.  It costs about 1 % of the wall time, traced or not.
"""

from __future__ import annotations

import bisect
import signal
import time


class SpeedProbe:
    """Samples this process's speed until :meth:`stop` is called."""

    PERIOD_S = 0.025
    LOOPS = 3000
    #: duration of the probe loop at the reference speed (about the fastest
    #: seen on the machine the benchmark was defined on)
    REFERENCE_S = 0.00018

    def __init__(self) -> None:
        self.times: list[float] = []
        self.factors: list[float] = []
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def _sample(self, signum=None, frame=None) -> None:
        start = time.monotonic()
        total = 0
        for i in range(self.LOOPS):
            total += i * i
        self.times.append(start)
        self.factors.append((time.monotonic() - start) / self.REFERENCE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed seconds of the interval [start, end].

        Time before the first sample takes the first sample's factor.
        """
        times, factors = self.times, self.factors
        i = max(0, bisect.bisect_right(times, start) - 1)
        total = 0.0
        t = start
        while t < end:
            stretch_end = min(times[i + 1], end) if i + 1 < len(times) else end
            total += (stretch_end - t) / factors[i]
            t = stretch_end
            i += 1
        return total
