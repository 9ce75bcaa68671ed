"""Percentiles under the benchmark's tail rule.

A timing is reported as its median and a tail percentile.  A tail
percentile is only reported when at least ten samples lie beyond it, so
a p99 needs 1000 samples and a p90 needs 100; the workloads run until
they have that many.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
TAIL_SAMPLES = 10

#: Percentiles considered for the tail, highest first.
LADDER = (99.9, 99.0, 90.0, 50.0)


def _rank(n: int, q: float) -> int:
    """Zero-based nearest-rank index of the ``q``-th percentile of ``n``
    sorted samples."""
    # Rounded first so that, e.g., 99.9% of 10000 is 9990, not 9990.000…02.
    return max(0, min(n - 1, math.ceil(round(q / 100.0 * n, 9)) - 1))


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-th
    nearest-rank percentile."""
    return n - 1 - _rank(n, q) if n else 0


def tail_percentile(n: int, ladder: Sequence[float] = LADDER) -> float | None:
    """The highest percentile in ``ladder`` with at least
    :data:`TAIL_SAMPLES` of ``n`` samples beyond it (``None`` if none)."""
    for q in sorted(ladder, reverse=True):
        if beyond(n, q) >= TAIL_SAMPLES:
            return q
    return None


def min_samples(q: float) -> int:
    """The fewest samples for which ``q`` satisfies the tail rule."""
    n = 1
    while beyond(n, q) < TAIL_SAMPLES:
        n += 1
    return n


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th nearest-rank percentile of ``samples``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ranked = sorted(samples)
    return ranked[_rank(len(ranked), q)]


def median(samples: Sequence[float]) -> float:
    """The middle value (mean of the two middle values for even counts)."""
    if not samples:
        raise ValueError("median of an empty sample")
    ranked = sorted(samples)
    mid = len(ranked) // 2
    if len(ranked) % 2:
        return ranked[mid]
    return (ranked[mid - 1] + ranked[mid]) / 2.0
