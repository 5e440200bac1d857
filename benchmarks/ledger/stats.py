"""Latency summaries: percentiles and the tail-percentile rule."""

from __future__ import annotations

import math

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75)
#: A percentile is only quoted with this many samples beyond it.
MIN_BEYOND = 10


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear-interpolated *p*-th percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = (len(sorted_values) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (rank - lo)


def tail_percentile(n: int) -> int | None:
    """The highest of p99/p95/p90/p75 with >= 10 samples beyond it.

    ``None`` when even p75 has fewer (n < 40): such a sample has no
    resolvable tail percentile.
    """
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100.0 >= MIN_BEYOND:
            return p
    return None
