"""Percentiles, with the rule for which tail may be reported."""

from __future__ import annotations

import math

#: Percentiles a tail may be reported at, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """The highest :data:`LADDER` percentile with ``MIN_BEYOND`` samples past it.

    ``None`` when even the median has fewer than ``MIN_BEYOND`` samples
    above it.  With 2048 samples this is p99 (20.48 beyond); p99.9 would
    leave only 2.
    """
    best = None
    for p in LADDER:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile ``p`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
