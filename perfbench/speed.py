"""Host-speed correction for timings on a shared machine.

The host these figures come from runs the same Python code up to a third
slower or faster from one few-second stretch to the next, because other
machines share its cores.  A fixed pure-Python task, timed every
EVERY_S seconds from a SIGALRM handler, tracks that speed.  A timed
interval is reported at the reference speed: its wall time, less the
sampling done inside it, times REF_S over the mean of the samples taken
during it and on either side of it.  The task keeps its own allocations
small and runs with the collector off, so the program's heap and the task
do not weigh on each other.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# Calibration time that defines the reference speed: about the task's
# median on the host the README figures come from.
REF_S = 0.005
EVERY_S = 0.1


def calibrate() -> float:
    """Seconds a fixed task takes now: small tuples, dict lookups, a sort."""
    gc_on = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen: dict = {}
        acc = 0
        for k in range(6_000):
            key = (k & 511, k % 7, "v")
            acc += seen.get(key, 0)
            seen[key] = k
        sorted(seen.items(), key=lambda kv: (kv[1] % 97, kv[0]))
        return time.perf_counter() - start
    finally:
        if gc_on:
            gc.enable()


class Speedometer:
    """Samples the host speed while active (a context manager); `scaled`
    converts an interval measured meanwhile."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.cal: list[float] = []
        self._busy = False
        self._old = None

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            took = calibrate()
            self.starts.append(start)
            self.ends.append(time.perf_counter())
            self.cal.append(took)
        finally:
            self._busy = False

    def __enter__(self) -> "Speedometer":
        self.sample()
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample()

    def net(self, start: float, end: float) -> float:
        """Seconds of [start, end] without the sampling done inside it."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        return end - start - sum(self.ends[k] - self.starts[k] for k in range(i, j))

    def scaled(self, start: float, end: float) -> float:
        """net(start, end) at the reference speed."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_left(self.starts, end)
        near = self.cal[max(i - 1, 0) : j + 1]
        return self.net(start, end) * REF_S / statistics.fmean(near)
