"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of ``count``."""
    return count - math.ceil(q / 100.0 * count)


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile; refuses one with too few samples beyond.

    A tail percentile read from a handful of samples is the maximum in
    disguise, so it raises ``ValueError`` unless at least
    :data:`MIN_BEYOND` samples lie beyond it.
    """
    ordered = sorted(samples)
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    beyond = samples_beyond(len(ordered), q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return ordered[math.ceil(q / 100.0 * len(ordered)) - 1]


def relative_iqr(samples) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)
