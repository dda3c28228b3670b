"""Machine-speed calibration, sampled while the measured work runs.

The virtual CPUs of a shared machine change speed by tens of percent
from one second to the next, so raw wall times of the same work spread
far more between runs than any bound worth having.  A `Calibrator`
times a fixed pure-Python kernel inside the measured process itself,
every INTERVAL_S, from a SIGALRM handler while one long call runs
(`with calibrator:`) or between requests (`sample()`).  A measured
time, minus the time the kernel took, is scaled by REFERENCE_S times
the mean of 1 / kernel time over the samples taken while the work ran:
that mean is the work's average speed, and the result reads as the
time the work would take on a CPU that runs the kernel in exactly
REFERENCE_S.  (The median kernel time is the wrong average when the
CPU flips between a fast and a slow state within one measurement.)
Raw times are reported next to the scaled ones.

The kernel runs with the garbage collector off, so that a collection
the measured program's allocations are owed never fires inside a
sample, where its time would be subtracted from the program's.  The
kernel frees every object it makes, so it leaves the collector's
allocation count as it found it.

Every time here is CPU time of the calling thread (`thread_time`), not
wall time.  The machine's other tenants deschedule a process that only
computes at random moments, for milliseconds at a time; that moved the
99th percentile of `generate` latencies by up to 90% between runs, and
CPU time leaves it out.  The measured work (compiling, loading, serving
from memory) does not wait on anything, so for it the two clocks
differ only by that stolen time.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import thread_time

REFERENCE_S = 0.001  # kernel time that defines the reference speed
INTERVAL_S = 0.025  # wall time between samples


def kernel() -> int:
    """Fixed interpreter work: string formatting, dict updates, tuples, sorting."""
    table: dict[str, int] = {}
    for i in range(600):
        key = "k%d" % (i % 150)
        table[key] = table.get(key, 0) + 1
        pair = tuple(sorted((key, str(i))))
    return len(table) + len(pair)


class Calibrator:
    def __init__(self):
        self.speeds: list[float] = []  # REFERENCE_S / kernel seconds, in sampling order
        self.stolen = 0.0  # seconds the kernel took from the measured work
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def sample(self, signum=None, frame=None):
        collecting = gc.isenabled()
        gc.disable()
        start = thread_time()
        kernel()
        if collecting:
            gc.enable()
        spent = thread_time() - start
        self.speeds.append(REFERENCE_S / spent)
        self.stolen += spent

    def clock(self) -> float:
        """thread_time() minus the time the kernel has taken so far."""
        return thread_time() - self.stolen

    def mark(self) -> tuple[float, int]:
        return self.clock(), len(self.speeds)

    def since(self, mark) -> tuple[float, float]:
        """(raw seconds, scaled seconds) of the work since mark, kernel time excluded."""
        start, first = mark
        raw = self.clock() - start
        return raw, raw * statistics.fmean(self.speeds[first - 1 :])


def around(speeds: list[float], taken: int) -> float:
    """Mean speed of the two samples before and the two after a short
    request that started when `taken` samples had been taken."""
    return statistics.fmean(speeds[max(0, taken - 2) : taken + 2])
