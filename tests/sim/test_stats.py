"""Tests for the statistics primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import (
    HitMissStats,
    LatencyStats,
    geometric_mean,
    ratio,
)


class TestRatio:
    def test_normal(self):
        assert ratio(1, 4) == 0.25

    def test_zero_denominator(self):
        assert ratio(5, 0) == 0.0


class TestHitMiss:
    def test_rates(self):
        stats = HitMissStats(hits=3, misses=1)
        assert stats.hit_rate == 0.75
        assert stats.miss_rate == 0.25
        assert stats.accesses == 4

    def test_empty(self):
        assert HitMissStats().hit_rate == 0.0

    def test_merge(self):
        a = HitMissStats(hits=1, misses=1)
        a.merge(HitMissStats(hits=3, misses=0))
        assert a.hits == 4

    def test_reset(self):
        stats = HitMissStats(hits=3, misses=1)
        stats.reset()
        assert stats.accesses == 0


class TestLatency:
    def test_record(self):
        stats = LatencyStats()
        stats.record(10)
        stats.record(20)
        assert stats.mean == 15
        assert stats.maximum == 20
        assert stats.count == 2

    def test_empty_mean(self):
        assert LatencyStats().mean == 0.0

    def test_merge_keeps_max(self):
        a = LatencyStats()
        a.record(5)
        b = LatencyStats()
        b.record(50)
        a.merge(b)
        assert a.maximum == 50
        assert a.mean == 27.5

    @given(st.lists(st.floats(min_value=0, max_value=1e6),
                    min_size=1, max_size=50))
    def test_mean_bounded_by_extremes(self, values):
        stats = LatencyStats()
        for value in values:
            stats.record(value)
        slack = 1e-9 * (1 + max(values))  # float-summation tolerance
        assert min(values) - slack <= stats.mean <= max(values) + slack


class TestAggregates:
    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)

    def test_geometric_mean_requires_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([1, 0])

    def test_geometric_mean_empty(self):
        assert geometric_mean([]) == 0.0
