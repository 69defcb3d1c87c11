"""Tests for memory-hierarchy composition and the L1 bypass path."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.cache import HIT, MISS_DIRTY_EVICT, Cache
from repro.mem.dram import DDR4_2400, HBM2, DramModel
from repro.mem.hierarchy import build_cpu_hierarchy, build_ndp_hierarchy
from repro.mem.interconnect import MeshInterconnect
from repro.mem.request import (
    KIND_BY_INDEX,
    KIND_DATA,
    KIND_METADATA,
    RequestKind,
)

# Residency without touching stats, as the cache tests read it.
from test_cache import holds


def data(hierarchy, now, paddr, core=0, is_write=0):
    return hierarchy.access_fast(now, paddr, KIND_DATA, is_write, core, 0)


def meta(hierarchy, now, paddr, core=0, bypass=False):
    return hierarchy.access_fast(now, paddr, KIND_METADATA, 0, core,
                                 1 if bypass else 0)


@pytest.fixture
def ndp():
    return build_ndp_hierarchy(2, HBM2)


@pytest.fixture
def cpu():
    return build_cpu_hierarchy(2, DDR4_2400)


class TestShapes:
    def test_ndp_has_single_cache_level(self, ndp):
        assert ndp.l2s is None
        assert ndp.l3 is None
        assert len(ndp.l1ds) == 2

    def test_cpu_has_three_levels(self, cpu):
        assert len(cpu.l2s) == 2
        assert cpu.l3 is not None

    def test_cpu_l3_scales_with_cores(self):
        assert build_cpu_hierarchy(4, DDR4_2400).l3.size_bytes \
            == 4 * 2 * 1024 * 1024

    def test_l2_count_must_match(self, ndp):
        from repro.mem.hierarchy import MemoryHierarchy
        with pytest.raises(ValueError):
            MemoryHierarchy(ndp.l1ds, ndp.dram, ndp.noc, l2s=[])


class TestLatencies:
    def test_l1_hit_costs_l1_latency(self, ndp):
        data(ndp, 0.0, 0)
        assert data(ndp, 1000.0, 0) == 4.0

    def test_ndp_miss_goes_to_dram(self, ndp):
        latency = data(ndp, 0.0, 0)
        # L1 lookup + 2x NoC + DRAM row miss.
        assert latency == 4 + 5 + HBM2.row_miss_cycles + 5

    def test_cpu_miss_descends_through_levels(self, cpu):
        latency = data(cpu, 0.0, 0)
        assert latency > 4 + 16 + 35  # at least all lookups + memory

    def test_cpu_l2_hit_cheaper_than_memory(self, cpu):
        data(cpu, 0.0, 0)
        big_stride = 64 * 64 * 8 * 4  # beyond L1 sets, within L2
        data(cpu, 0.0, big_stride)
        # Evict line 0 from tiny L1 by filling its set.
        for i in range(1, 9):
            data(cpu, 0.0, i * 64 * 64)
        latency = data(cpu, 10_000.0, 0)
        assert latency == 4 + 16  # L1 miss, L2 hit


class TestBypass:
    def test_bypassed_metadata_skips_l1(self, ndp):
        meta(ndp, 0.0, 0, bypass=True)
        assert not holds(ndp.l1ds[0], 0)
        assert ndp.stats.l1_bypasses == 1

    def test_bypassed_metadata_not_looked_up_in_l1(self, ndp):
        data(ndp, 0.0, 0)  # line resident
        before = ndp.l1ds[0].stats.metadata.accesses
        meta(ndp, 0.0, 0, bypass=True)
        assert ndp.l1ds[0].stats.metadata.accesses == before

    def test_cacheable_metadata_allocates_into_l1(self, ndp):
        meta(ndp, 0.0, 0, bypass=False)
        assert holds(ndp.l1ds[0], 0)

    def test_bypass_saves_l1_latency_on_miss(self, ndp):
        lat_bypass = meta(ndp, 0.0, 1 << 20, bypass=True)
        lat_cached = meta(ndp, 0.0, 2 << 20, bypass=False)
        assert lat_cached == lat_bypass + 4


class TestIsolation:
    def test_private_l1_per_core(self, ndp):
        data(ndp, 0.0, 0, core=0)
        assert holds(ndp.l1ds[0], 0)
        assert not holds(ndp.l1ds[1], 0)

    def test_shared_l3_across_cores(self, cpu):
        data(cpu, 0.0, 0, core=0)
        latency = data(cpu, 10_000.0, 0, core=1)
        # Core 1 misses its L1/L2 but hits the shared L3.
        assert latency == 4 + 16 + 35


class TestWritebacks:
    def test_dirty_eviction_reaches_dram(self, ndp):
        stride = 64 * 64  # L1 set stride (64 sets)
        data(ndp, 0.0, 0, is_write=1)
        for i in range(1, 9):  # evict through the 8 ways
            data(ndp, 0.0, i * stride)
        assert ndp.dram.stats.writebacks >= 1

    def test_miss_rate_helper(self, ndp):
        data(ndp, 0.0, 0)
        data(ndp, 0.0, 0)
        assert ndp.l1_miss_rate(RequestKind.DATA) == 0.5


class ReferenceNdp:
    """The NDP hierarchy composed from its standalone parts: a private
    :class:`Cache` per core over one :class:`DramModel`, plus the mesh
    round trip.  ``MemoryHierarchy.access_fast`` inlines exactly this
    for the single-level shape."""

    def __init__(self, num_cores, l1_size, l1_assoc):
        self.l1s = [Cache(f"ref{core}", l1_size, l1_assoc, 4)
                    for core in range(num_cores)]
        self.dram = DramModel(HBM2)
        mesh = MeshInterconnect(num_cores, near_memory=True)
        self.mesh = [mesh.hops(core) * mesh.config.hop_latency
                     + mesh.serialization_cycles()
                     for core in range(num_cores)]
        self.bypasses = 0
        self.dram_reads = 0

    def access(self, now, paddr, kind, is_write, core, bypass):
        latency = 0.0
        if bypass:
            self.bypasses += 1
        else:
            cache = self.l1s[core]
            latency += cache.hit_latency
            code = cache.access_fast(paddr, kind, is_write)
            if code == HIT:
                return latency
            if code == MISS_DIRTY_EVICT:
                self.dram.drain_write_fast(
                    now + latency, cache.evict_tag * cache.line_size,
                    cache.evict_kind)
        latency += self.mesh[core]
        latency += self.dram.access_fast(now + latency, paddr, kind,
                                         is_write)
        latency += self.mesh[core]
        self.dram_reads += 1
        return latency


def cache_counters(cache):
    stats = cache.stats
    per_kind = [(kind_stats.hits, kind_stats.misses)
                for kind_stats in (stats.data, stats.metadata,
                                   stats.instruction)]
    return per_kind, stats.writebacks, stats.data_evicted_by_metadata


def dram_counters(dram):
    stats = dram.stats
    return (list(stats.kind_counts), stats.demand_writes, stats.writebacks,
            stats.row_hits, stats.row_misses, stats.queue_delay.total)


#: One request: (cycles since the previous one, 1 MB region, line,
#: byte offset, kind code, is_write, core, bypass).  96 lines three
#: apart cover a 16-set L1 six lines per set, so requests both hit
#: and evict; the regions put the same lines in other DRAM rows.
REQUESTS = st.lists(
    st.tuples(st.integers(0, 300), st.integers(0, 3), st.integers(0, 95),
              st.integers(0, 63), st.integers(0, len(KIND_BY_INDEX) - 1),
              st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
    min_size=100, max_size=400)


class TestNdpInlineDifferential:
    """The inlined single-level path of ``access_fast`` against the
    standalone cache and DRAM entry points it mirrors."""

    @given(REQUESTS)
    @settings(max_examples=60, deadline=None)
    def test_matches_cache_plus_dram(self, requests):
        hierarchy = build_ndp_hierarchy(2, HBM2, l1_size=2048, l1_assoc=2)
        reference = ReferenceNdp(2, 2048, 2)
        now = 0.0
        for (gap, region, line, offset, kind, is_write, core,
             bypass) in requests:
            now += gap
            paddr = (region << 20) + line * 3 * 64 + offset
            got = hierarchy.access_fast(now, paddr, kind, is_write, core,
                                        bypass)
            assert got == reference.access(now, paddr, kind, is_write,
                                           core, bypass)
        for ours, theirs in zip(hierarchy.l1ds, reference.l1s):
            assert cache_counters(ours) == cache_counters(theirs)
            # Same lines and states, in the same LRU order.
            assert [list(cache_set.items()) for cache_set in ours._sets] \
                == [list(cache_set.items()) for cache_set in theirs._sets]
        assert dram_counters(hierarchy.dram) \
            == dram_counters(reference.dram)
        assert hierarchy.stats.accesses == len(requests)
        assert hierarchy.stats.l1_bypasses == reference.bypasses
        assert hierarchy.stats.dram_reads == reference.dram_reads
