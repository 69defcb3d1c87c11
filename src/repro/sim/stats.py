"""Lightweight named-counter statistics.

Every architectural component (TLBs, caches, DRAM channels, walkers)
keeps its own small stat objects; the experiment runner aggregates them
into a flat mapping for reporting.  A tiny hand-rolled class is used
instead of ``collections.Counter`` so that attribute access stays cheap
on the simulator hot path and so ratios are computed in one place.
"""

from __future__ import annotations

from dataclasses import dataclass


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` with a 0.0 guard for empty runs."""
    if denominator == 0:
        return 0.0
    return numerator / denominator


@dataclass(slots=True)
class HitMissStats:
    """Hit/miss counters shared by TLBs, PWCs and caches."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


@dataclass(slots=True)
class LatencyStats:
    """Accumulates a latency distribution (sum / count / max)."""

    total: float = 0.0
    count: int = 0
    maximum: float = 0.0

    @property
    def mean(self) -> float:
        return ratio(self.total, self.count)

    def merge(self, other: "LatencyStats") -> None:
        self.total += other.total
        self.count += other.count
        if other.maximum > self.maximum:
            self.maximum = other.maximum


def geometric_mean(values) -> float:
    """Geometric mean of positive values (speedup aggregation)."""
    values = list(values)
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        if value <= 0:
            raise ValueError("geometric mean requires positive values")
        product *= value
    return product ** (1.0 / len(values))
