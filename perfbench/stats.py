"""Order statistics shared by the runner and the compare command."""

from __future__ import annotations

import statistics

# Candidate tail percentiles, highest first.  A percentile is reported only
# when at least TAIL_MIN_BEYOND samples lie beyond it, so the figure never
# rests on a handful of outliers.
TAIL_CANDIDATES = (99.99, 99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _rank(n: int, p: float) -> int:
    """Nearest rank (1-based) of percentile ``p`` among ``n`` samples."""
    return max(1, -int(-n * p // 100))


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def tail_percentile(values: list[float]) -> tuple[float, float, int] | None:
    """Highest candidate percentile with at least TAIL_MIN_BEYOND samples
    ranked above it: (percentile, value, samples beyond), or None when there
    are too few samples for any candidate."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_CANDIDATES:
        rank = _rank(n, p)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1], n - rank
    return None


def percentile_label(p: float) -> str:
    """``99.0`` -> ``p99``, ``99.9`` -> ``p99.9``."""
    return f"p{p:g}"
