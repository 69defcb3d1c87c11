"""Tests for the cache's LRU replacement, through ``Cache.access_fast``.

LRU is the policy of every cache in the paper's Table I, and the only
one the simulator models: each set is an insertion-ordered dict, oldest
line first.
"""

import pytest

from repro.mem.cache import Cache
from repro.mem.request import KIND_DATA

# Residency without touching stats, as the cache tests read it.
from test_cache import holds


def data_read(cache, paddr):
    return cache.access_fast(paddr, KIND_DATA, 0)


def line(paddr):
    return paddr >> 6  # 64 B lines


@pytest.fixture
def cache():
    # 4 KB, 4-way, 64 B lines: 16 sets.
    return Cache("L1D", 4096, 4, hit_latency=4)


class TestLru:
    """Least-recently-used replacement within one set."""

    @pytest.fixture
    def full_set(self, cache):
        stride = cache.num_sets * 64
        for i in range(cache.associativity):
            data_read(cache, i * stride)
        return stride

    def test_victim_is_oldest(self, cache, full_set):
        data_read(cache, 4 * full_set)
        assert cache.evict_tag == line(0)

    def test_hit_refreshes(self, cache, full_set):
        data_read(cache, 0)
        data_read(cache, 4 * full_set)
        assert holds(cache, 0)
        assert cache.evict_tag == line(full_set)

    def test_repeated_hits_keep_line_young(self, cache, full_set):
        for _ in range(5):
            data_read(cache, 0)
        for i in range(4, 7):
            data_read(cache, i * full_set)
        assert holds(cache, 0)
        assert not holds(cache, 3 * full_set)
