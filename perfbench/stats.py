"""Order statistics shared by the runner and the comparator."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10   # a tail percentile needs this many samples beyond it


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> float:
    """The highest percentile with TAIL_BEYOND samples beyond it.

    That is the (n - TAIL_BEYOND)-th of n sorted samples; with too few
    samples for any such percentile, the maximum.
    """
    xs = sorted(values)
    return float(xs[len(xs) - TAIL_BEYOND - 1]
                 if len(xs) > TAIL_BEYOND else xs[-1])


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
