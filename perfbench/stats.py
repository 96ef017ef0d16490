"""Order statistics shared by the runner, the compare mode and the tests.

Standard library only: the worker imports this module before it starts
the clock on ``import freqchan``, so it must not pull in numpy.
"""

from __future__ import annotations

import statistics

# A tail percentile is reported only where at least this many samples lie
# beyond it, so one outlier cannot set it.
TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, sample count) of the highest percentile with at
    least ``TAIL_BEYOND`` samples beyond it, or None when no rank has.

    With n sorted samples the sample of 1-based rank k has n - k beyond
    it, so the rank is n - TAIL_BEYOND and the percentile 100 k / n.
    """
    n = len(samples)
    rank = n - TAIL_BEYOND
    if rank < 1:
        return None
    return sorted(samples)[rank - 1], 100.0 * rank / n, n


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) by statistics.quantiles."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def median(values: list[float]) -> float:
    return statistics.median(values)
