"""Percentiles as the benchmark reports them."""

from __future__ import annotations

import numpy as np

#: a tail percentile is only reported with at least this many samples
#: beyond it; with fewer, the highest percentile that has them is used
TAIL_BEYOND = 10


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1]); 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return quantile(values, 0.5)


def tail_q(n: int, q: float = 0.99) -> float:
    """``q``, or the highest quantile with ``TAIL_BEYOND`` samples above
    it, never below the median."""
    if n <= 0:
        return q
    return max(0.5, min(q, 1.0 - TAIL_BEYOND / n))


def tail(values, q: float = 0.99) -> tuple[float, float]:
    """(tail value, quantile actually used)."""
    used = tail_q(len(values), q)
    return quantile(values, used), used


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0
