"""Result timing in CPU seconds, scaled by the host's speed at the time.

The benchmark runs on a few cores of a shared host.  Wall-clock time
counts the spells in which another process held the core; CPU time does
not, and includes the children that have ended, so that work moved into
a process pool is still counted.  But the host's speed itself swings by
half over minutes as other tenants load it, and CPU time follows that.
So the runner keeps a probe (probe.py) running beside the workers, and a
result's *scaled* time is its CPU time times ``PROBE_REF_S`` over the
mean time of the probes that ran while it ran: the time it would have
taken on a host that runs the probe in ``PROBE_REF_S``.  A change to
freqchan moves the scaled time as it moves the CPU time, since the probe
calls nothing in freqchan; a change in the host's speed moves the probe
with it, and cancels.

Standard library only: the worker imports this module before it starts
the clock on ``import freqchan``.
"""

from __future__ import annotations

import bisect
import contextlib
import resource
import time

# Median CPU seconds of one probe on a 2-core Xeon VM; any fixed value
# would do, since a change is judged by the ratio of two runs.
PROBE_REF_S = 0.020


def cpu_time() -> float:
    """CPU seconds of this process's threads and of its ended children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def stamp() -> tuple[float, float]:
    """(wall, CPU) clock readings."""
    return time.perf_counter(), cpu_time()


class Timer:
    """The (start, end) stamps of each result of one pass."""

    def __init__(self) -> None:
        self.results: list[tuple[tuple[float, float], tuple[float, float]]] = []

    @contextlib.contextmanager
    def result(self):
        start = stamp()
        yield
        self.results.append((start, stamp()))


def host_factor(probes: list[tuple[float, float, float]],
                start: float, end: float) -> float:
    """Mean CPU seconds of the probes that ran within the wall-clock span
    [start, end], or of the last one before it and the first one after
    it when none did.  ``probes`` are (start, end, CPU seconds), sorted."""
    mids = [0.5 * (a + b) for a, b, _ in probes]
    lo, hi = bisect.bisect_left(mids, start), bisect.bisect_right(mids, end)
    if lo == hi:
        lo, hi = max(lo - 1, 0), min(hi + 1, len(probes))
    inside = [s for _, _, s in probes[lo:hi]]
    return sum(inside) / len(inside)


def scaled(cpu_s: float, probes: list[tuple[float, float, float]],
           start: float, end: float) -> float:
    """``cpu_s`` spent in the wall-clock span [start, end], at the speed
    of a host that runs the probe in ``PROBE_REF_S``."""
    return cpu_s * PROBE_REF_S / host_factor(probes, start, end)
