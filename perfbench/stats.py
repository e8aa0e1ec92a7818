"""Percentile rule shared by the end-to-end and per-layer timing metrics."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Candidate tail percentiles, highest first.
LADDER = (Fraction("99.9"), Fraction(99), Fraction(90), Fraction(50))
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest percentile in LADDER with at least MIN_BEYOND of ``n`` samples beyond it.

    Returns None when even the median has fewer than MIN_BEYOND samples above it.
    """
    for q in LADDER:
        if n * (100 - q) / 100 >= MIN_BEYOND:
            return float(q)
    return None


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def p99_or_tail(values) -> tuple[float, float | None]:
    """(value, percentile used): p99 when the sample supports it, else the rule's tail.

    With fewer than 20 samples no percentile has ten samples beyond it; the
    median is returned and the percentile reported as None.
    """
    q = tail_percentile(len(values))
    used = min(q, 99.0) if q is not None else None
    return percentile(values, 50.0 if used is None else used), used
