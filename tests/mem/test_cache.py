"""Tests for the set-associative cache and its metadata attribution."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.cache import (
    HIT,
    MISS,
    MISS_CLEAN_EVICT,
    MISS_DIRTY_EVICT,
    Cache,
)
from repro.mem.request import KIND_DATA, KIND_METADATA, RequestKind


def data_read(cache, paddr):
    return cache.access_fast(paddr, KIND_DATA, 0)


def data_write(cache, paddr):
    return cache.access_fast(paddr, KIND_DATA, 1)


def meta_read(cache, paddr):
    return cache.access_fast(paddr, KIND_METADATA, 0)


@pytest.fixture
def cache():
    # 4 KB, 4-way, 64 B lines: 16 sets.
    return Cache("L1D", 4096, 4, hit_latency=4)


class TestGeometry:
    def test_num_sets(self, cache):
        assert cache.num_sets == 16

    def test_size_must_divide(self):
        with pytest.raises(ValueError):
            Cache("bad", 1000, 3, 1)

    def test_table1_l1(self):
        l1 = Cache("L1D", 32 * 1024, 8, 4)
        assert l1.num_sets == 64


class TestHitMiss:
    def test_cold_miss(self, cache):
        assert data_read(cache, 0) == MISS

    def test_second_access_hits(self, cache):
        data_read(cache, 0)
        assert data_read(cache, 0) == HIT

    def test_same_line_different_bytes_hit(self, cache):
        data_read(cache, 0)
        assert data_read(cache, 63) == HIT

    def test_adjacent_line_misses(self, cache):
        data_read(cache, 0)
        assert data_read(cache, 64) != HIT

    def test_stats_per_kind(self, cache):
        data_read(cache, 0)
        meta_read(cache, 4096)
        meta_read(cache, 4096)
        assert cache.stats.data.misses == 1
        assert cache.stats.metadata.misses == 1
        assert cache.stats.metadata.hits == 1

    def test_contains_no_side_effects(self, cache):
        data_read(cache, 0)
        hits_before = cache.stats.data.hits
        assert cache.contains(0)
        assert cache.stats.data.hits == hits_before


class TestEviction:
    def test_lru_eviction_within_set(self, cache):
        stride = cache.num_sets * 64  # same set
        for i in range(5):
            data_read(cache, i * stride)
        assert not cache.contains(0)
        assert cache.contains(4 * stride)

    def test_eviction_reports_victim(self, cache):
        stride = cache.num_sets * 64
        for i in range(4):
            data_read(cache, i * stride)
        assert data_read(cache, 4 * stride) == MISS_CLEAN_EVICT
        assert cache.evict_tag == 0
        assert cache.evict_kind == KIND_DATA

    def test_dirty_eviction_flagged(self, cache):
        stride = cache.num_sets * 64
        data_write(cache, 0)
        for i in range(1, 5):
            code = data_read(cache, i * stride)
        assert code == MISS_DIRTY_EVICT
        assert cache.stats.writebacks == 1

    def test_clean_eviction_not_writeback(self, cache):
        stride = cache.num_sets * 64
        for i in range(5):
            data_read(cache, i * stride)
        assert cache.stats.writebacks == 0

    def test_pollution_counter(self, cache):
        """Metadata fills evicting data lines — the Fig. 7 mechanism."""
        stride = cache.num_sets * 64
        for i in range(4):
            data_read(cache, i * stride)
        meta_read(cache, 4 * stride)
        assert cache.stats.data_evicted_by_metadata == 1

    def test_reverse_pollution_counter(self, cache):
        stride = cache.num_sets * 64
        for i in range(4):
            meta_read(cache, i * stride)
        assert data_read(cache, 4 * stride) == MISS_CLEAN_EVICT
        assert cache.evict_kind == KIND_METADATA
        assert cache.stats.metadata_evicted_by_data == 1


class TestWriteSemantics:
    def test_write_hit_marks_dirty(self, cache):
        data_read(cache, 0)
        data_write(cache, 0)
        stride = cache.num_sets * 64
        for i in range(1, 5):
            code = data_read(cache, i * stride)
        assert code == MISS_DIRTY_EVICT

    def test_write_allocates(self, cache):
        data_write(cache, 128)
        assert cache.contains(128)


class TestMaintenance:
    def test_invalidate(self, cache):
        data_read(cache, 0)
        assert cache.invalidate(0)
        assert not cache.contains(0)

    def test_invalidate_absent(self, cache):
        assert not cache.invalidate(0)

    def test_flush(self, cache):
        for i in range(8):
            data_read(cache, i * 64)
        cache.flush()
        assert cache.resident_lines == 0

    def test_resident_kind_counts(self, cache):
        data_read(cache, 0)
        meta_read(cache, 64)
        counts = cache.resident_kind_counts()
        assert counts[RequestKind.DATA] == 1
        assert counts[RequestKind.METADATA] == 1


class TestProperties:
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_capacity_never_exceeded(self, lines):
        cache = Cache("prop", 2048, 2, 1)
        for line in lines:
            data_read(cache, line * 64)
        assert cache.resident_lines <= 2048 // 64
        for s in cache._sets:
            assert len(s) <= 2

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, lines):
        cache = Cache("prop", 2048, 2, 1)
        for line in lines:
            data_read(cache, line * 64)
        stats = cache.stats.data
        assert stats.hits + stats.misses == len(lines)

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_small_working_set_always_hits_after_warmup(self, lines):
        cache = Cache("prop", 4096, 8, 1)  # 8 lines fit in one set? no: 8 sets
        for line in set(lines):
            data_read(cache, line * 64)
        for line in lines:
            assert data_read(cache, line * 64) == HIT
