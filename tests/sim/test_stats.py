"""Tests for the statistics primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.mem.dram import HBM2
from repro.mem.hierarchy import build_ndp_hierarchy
from repro.mmu.mmu import Mmu
from repro.mmu.tlb import build_tlbs
from repro.mmu.walker import PageTableWalker
from repro.sim.config import TlbParams
from repro.sim.stats import (
    HitMissStats,
    LatencyStats,
    geometric_mean,
    ratio,
)
from repro.vm.frames import FrameAllocator
from repro.vm.os_model import OSMemoryManager
from repro.vm.radix import RadixPageTable


class TestRatio:
    def test_normal(self):
        assert ratio(1, 4) == 0.25

    def test_zero_denominator(self):
        assert ratio(5, 0) == 0.0


class TestHitMiss:
    def test_rates(self):
        stats = HitMissStats(hits=3, misses=1)
        assert stats.accesses == 4
        assert ratio(stats.hits, stats.accesses) == 0.75

    def test_empty(self):
        stats = HitMissStats()
        assert stats.accesses == 0
        assert ratio(stats.hits, stats.accesses) == 0.0


class TestLatency:
    def test_record(self):
        """The MMU records one walk-latency sample per page walk."""
        allocator = FrameAllocator(64 * 1024 ** 2)
        table = RadixPageTable(allocator)
        walker = PageTableWalker(table, build_ndp_hierarchy(1, HBM2), 0)
        mmu = Mmu(0, build_tlbs(TlbParams()), walker,
                  OSMemoryManager(allocator, table))
        outcomes = [mmu.translate_parts(now, page << 12)
                    for now, page in ((0.0, 1), (1e4, 2), (2e4, 1))]
        # A walk's latency is what the TLBs' 1 + 12 cycles leave; the
        # third translation hits the L1-DTLB and walks nothing.
        walks = [latency - 13 for _, latency, _, _, walked in outcomes
                 if walked]
        assert len(walks) == 2
        stats = mmu.stats.walk_latency
        assert (stats.count, stats.total, stats.maximum) \
            == (2, sum(walks), max(walks))
        assert stats.mean == stats.total / 2

    def test_empty_mean(self):
        assert LatencyStats().mean == 0.0

    def test_merge_keeps_max(self):
        a = LatencyStats(total=5, count=1, maximum=5)
        a.merge(LatencyStats(total=50, count=1, maximum=50))
        assert a.maximum == 50
        assert a.mean == 27.5

    @given(st.lists(st.floats(min_value=0, max_value=1e6),
                    min_size=1, max_size=50))
    def test_mean_bounded_by_extremes(self, values):
        stats = LatencyStats()
        for value in values:
            # The sample the MMU takes per walk.
            stats.total += value
            stats.count += 1
            stats.maximum = max(stats.maximum, value)
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
