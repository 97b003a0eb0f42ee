"""Order statistics shared by the runner, the traced run and the comparison."""

from __future__ import annotations

import math
import statistics

# candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def nearest_rank(sorted_values, p: float) -> float:
    """The p-th percentile by the nearest-rank rule (a value that occurred)."""
    n = len(sorted_values)
    rank = max(1, math.ceil(round(p * n / 100.0, 9)))  # round: 99.9% of 10,000 is 9990
    return sorted_values[rank - 1]


def tail(values, min_beyond: int = TAIL_MIN_BEYOND):
    """Highest ladder percentile with at least ``min_beyond`` samples above it.

    Returns ``(percentile, value, samples_beyond)``, or ``None`` when even the
    median has fewer than ``min_beyond`` samples above it.
    """
    ordered = sorted(values)
    for p in TAIL_LADDER:
        value = nearest_rank(ordered, p) if ordered else 0.0
        beyond = sum(1 for v in ordered if v > value)
        if beyond >= min_beyond:
            return p, value, beyond
    return None


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf
