"""Host speed sampled during the timed region, to take host drift out of it.

On a shared host the same code runs up to a third slower in spells of
seconds to minutes, and the slowdown is local to the core the process runs
on. On a 2-vCPU host, a reference loop in the same process slowed with a
numpy loop timed beside it (their speeds correlated above 0.9 in 1-second
windows), while one in a process on the other core barely did (about 0.4). So the probe runs inside the child, on the
program's own thread: every ``INTERVAL_S`` a SIGALRM handler times a fixed
reference kernel. The time the handler takes is subtracted from the timed
region, and the rest is scaled by ``REFERENCE_S`` over the mean sample:
the wall time the region would take on a host running the reference at
its nominal speed.

No module of the program installs signal handlers or starts threads, so
the handler interrupts only the program's main thread between bytecodes.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.2
# The reference kernel's time in a quiet spell on the host the benchmark was
# built on (Intel Xeon, 2 vCPUs, Python 3.11.7). It only fixes the scale of
# the corrected times, and is the same for every commit compared.
REFERENCE_S = 0.0017

_STEPS = np.random.default_rng(0).random((100, 8))


def reference() -> float:
    """A fixed mix like the program's: a pure-Python loop, then small vector steps."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    w = np.zeros(8)
    for x in _STEPS:
        w -= 0.01 * (1.0 / (1.0 + np.exp(-(x @ w))) - 0.5) * x
    return total + float(w.sum())


class HostSpeed:
    """Samples the reference kernel every INTERVAL_S between start() and stop()."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    @staticmethod
    def _time_reference() -> float:
        t0 = perf_counter()
        reference()
        return perf_counter() - t0

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(self._time_reference())
        self.spent_s += perf_counter() - t0

    # One sample just before and one just after the region, outside it, so
    # that a region shorter than INTERVAL_S is measured too.
    def start(self) -> None:
        reference()  # warm
        self.samples.append(self._time_reference())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.samples.append(self._time_reference())

    def factor(self) -> float:
        """Nominal over measured host speed: below 1 while the host is slow.

        Samples are evenly spaced in time, so their mean is the region's
        time-averaged slowdown; the fastest and slowest tenth are dropped,
        since a single preemption can land in one sample.
        """
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return REFERENCE_S / statistics.fmean(ordered[cut:len(ordered) - cut])

    def corrected(self, wall_s: float) -> float:
        """wall_s without the probe's own time, at the nominal host speed."""
        return (wall_s - self.spent_s) * self.factor()
