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
from repro.mem.request import KIND_DATA, KIND_METADATA


def data_read(cache, paddr):
    return cache.access_fast(paddr, KIND_DATA, 0)


def data_write(cache, paddr):
    return cache.access_fast(paddr, KIND_DATA, 1)


def meta_read(cache, paddr):
    return cache.access_fast(paddr, KIND_METADATA, 0)


def holds(cache, paddr):
    """True when the line of ``paddr`` is resident (no stats touched)."""
    line = paddr >> cache._line_shift
    return line in cache._sets[line % cache.num_sets]


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


class TestEviction:
    def test_lru_eviction_within_set(self, cache):
        stride = cache.num_sets * 64  # same set
        for i in range(5):
            data_read(cache, i * stride)
        assert not holds(cache, 0)
        assert holds(cache, 4 * stride)

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
        """A data fill evicting metadata reports its victim but is not
        pollution: only metadata evicting data counts."""
        stride = cache.num_sets * 64
        for i in range(4):
            meta_read(cache, i * stride)
        assert data_read(cache, 4 * stride) == MISS_CLEAN_EVICT
        assert cache.evict_kind == KIND_METADATA
        assert cache.stats.data_evicted_by_metadata == 0


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
        assert holds(cache, 128)


class TestMaintenance:
    def test_resident_kind_counts(self, cache):
        """Each resident line keeps the kind that filled it."""
        data_read(cache, 0)
        meta_read(cache, 64)
        data_read(cache, 64)  # a hit does not re-attribute the line
        kinds = sorted(packed >> 1 for cache_set in cache._sets
                       for packed in cache_set.values())
        assert kinds == [KIND_DATA, KIND_METADATA]


class TestProperties:
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_capacity_never_exceeded(self, lines):
        cache = Cache("prop", 2048, 2, 1)
        for line in lines:
            data_read(cache, line * 64)
        assert sum(map(len, cache._sets)) <= 2048 // 64
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


#: One access: (line, kind code, is_write).  16 lines over the 4 sets
#: of a 2-way cache keep every set under pressure.
ACCESSES = st.lists(
    st.tuples(st.integers(0, 15), st.sampled_from([KIND_DATA,
                                                   KIND_METADATA]),
              st.integers(0, 1)),
    min_size=10, max_size=200)


class TestAccessFastDifferential:
    """:meth:`Cache.access_fast` against the :class:`LruSets` model
    plus a per-line (kind, dirty) record: the same hit or miss and the
    same victim (line, kind, dirtiness) on every access, the same
    write-back and pollution counts, and the same set contents and line
    states in LRU order at the end."""

    @given(accesses=ACCESSES, offset=st.integers(0, 63))
    @settings(max_examples=150, deadline=None)
    def test_matches_lru_model(self, lru_sets, accesses, offset):
        cache = Cache("diff", 512, 2, hit_latency=1)
        model = lru_sets(cache.num_sets, cache.associativity)
        state = {}  # resident line -> [kind, dirty]
        counts = {KIND_DATA: [0, 0], KIND_METADATA: [0, 0]}
        writebacks = polluted = 0
        for line, kind, is_write in accesses:
            code = cache.access_fast(line * 64 + offset, kind, is_write)
            hit, victim = model.access(line)
            counts[kind][0 if hit else 1] += 1
            if hit:
                assert code == HIT
                state[line][1] |= is_write
                continue
            state[line] = [kind, is_write]
            if victim is None:
                assert code == MISS
                continue
            victim_kind, dirty = state.pop(victim)
            assert code == (MISS_DIRTY_EVICT if dirty
                            else MISS_CLEAN_EVICT)
            assert (cache.evict_tag, cache.evict_kind) \
                == (victim, victim_kind)
            writebacks += dirty
            polluted += kind == KIND_METADATA and victim_kind == KIND_DATA
        assert {KIND_DATA: [cache.stats.data.hits, cache.stats.data.misses],
                KIND_METADATA: [cache.stats.metadata.hits,
                                cache.stats.metadata.misses]} == counts
        assert cache.stats.writebacks == writebacks
        assert cache.stats.data_evicted_by_metadata == polluted
        assert [list(cache_set.items()) for cache_set in cache._sets] \
            == [[(line, state[line][0] << 1 | state[line][1])
                 for line in entries] for entries in model.sets]
