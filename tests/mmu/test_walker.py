"""Tests for the page-table walker: PWC skipping, bypass, parallelism."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.flattened import FlattenedPageTable
from repro.core.mechanisms import get_mechanism
from repro.mem.dram import DDR4_2400, HBM2
from repro.mem.hierarchy import build_cpu_hierarchy, build_ndp_hierarchy
from repro.mem.request import KIND_DATA, KIND_METADATA
from repro.mmu.pwc import PwcSet
from repro.mmu.walker import PageTableWalker
from repro.vm.address import asid_tag
from repro.vm.cuckoo import ElasticCuckooPageTable
from repro.vm.frames import FrameAllocator
from repro.vm.ideal import IdealPageTable
from repro.vm.radix import RadixPageTable

MIB = 1024 ** 2


def walk(walker, now, page):
    """Walk ``page`` through the two calls the MMU makes; returns
    ``(latency, PTE memory accesses of this walk)``."""
    before = walker.stats.memory_accesses
    flat, probes, _ = walker.plan_info(page)
    latency = walker.walk_from_plan(now, flat, probes)
    return latency, walker.stats.memory_accesses - before


def pwc_hits(pwcs):
    """PWC hits per level so far."""
    return {level: cache.stats.hits
            for level, cache in pwcs.caches().items()}


@pytest.fixture
def hierarchy():
    return build_ndp_hierarchy(1, HBM2)


@pytest.fixture
def radix_setup(hierarchy):
    allocator = FrameAllocator(64 * MIB)
    table = RadixPageTable(allocator)
    table.map_page(0x12345, pfn=5)
    return table, hierarchy


class TestSequentialWalk:
    def test_four_memory_accesses_without_pwc(self, radix_setup):
        table, hierarchy = radix_setup
        walker = PageTableWalker(table, hierarchy, core_id=0)
        _, accesses = walk(walker, 0.0, 0x12345)
        assert accesses == 4

    def test_walk_latency_accumulates_sequentially(self, radix_setup):
        table, hierarchy = radix_setup
        walker = PageTableWalker(table, hierarchy, core_id=0)
        latency, _ = walk(walker, 0.0, 0x12345)
        # Four sequential accesses, each at least an L1 lookup.
        assert latency >= 4 * hierarchy.l1ds[0].hit_latency

    def test_stats_recorded(self, radix_setup):
        table, hierarchy = radix_setup
        walker = PageTableWalker(table, hierarchy, core_id=0)
        walk(walker, 0.0, 0x12345)
        latency, _ = walk(walker, 1000.0, 0x12345)
        assert walker.stats.walks == 2
        assert walker.stats.memory_accesses == 8
        # The first walk left all four PTE lines in the L1.
        assert latency == 4 * hierarchy.l1ds[0].hit_latency

    def test_metadata_kind_used(self, radix_setup):
        table, hierarchy = radix_setup
        walker = PageTableWalker(table, hierarchy, core_id=0)
        walk(walker, 0.0, 0x12345)
        assert hierarchy.l1ds[0].stats.metadata.accesses == 4
        assert hierarchy.l1ds[0].stats.data.accesses == 0


class TestPwcSkipping:
    def test_second_walk_skips_cached_levels(self, radix_setup):
        table, hierarchy = radix_setup
        pwcs = PwcSet(("PL4", "PL3", "PL2", "PL1"))
        walker = PageTableWalker(table, hierarchy, core_id=0, pwcs=pwcs)
        _, first = walk(walker, 0.0, 0x12345)
        assert pwc_hits(pwcs) == dict.fromkeys(("PL4", "PL3", "PL2",
                                                "PL1"), 0)
        _, second = walk(walker, 10_000.0, 0x12345)
        assert first == 4
        assert second == 0  # PL1 PWC hit: full skip
        assert pwc_hits(pwcs)["PL1"] == 1

    def test_partial_skip_resumes_below_hit(self, radix_setup):
        table, hierarchy = radix_setup
        table.map_page(0x12345 + 1, pfn=6)  # same PL2 prefix
        pwcs = PwcSet(("PL4", "PL3", "PL2", "PL1"))
        walker = PageTableWalker(table, hierarchy, core_id=0, pwcs=pwcs)
        walk(walker, 0.0, 0x12345)
        _, accesses = walk(walker, 10_000.0, 0x12345 + 1)
        # Deepest hit is PL2 (PL1 holds the other page's prefix).
        assert pwc_hits(pwcs) == {"PL4": 1, "PL3": 1, "PL2": 1, "PL1": 0}
        assert accesses == 1  # only PL1 fetched

    def test_pwc_levels_restricted(self, radix_setup):
        table, hierarchy = radix_setup
        pwcs = PwcSet(("PL4", "PL3"))  # no PL2/PL1 caches
        walker = PageTableWalker(table, hierarchy, core_id=0, pwcs=pwcs)
        walk(walker, 0.0, 0x12345)
        _, accesses = walk(walker, 10_000.0, 0x12345)
        assert accesses == 2  # PL2 and PL1 every time
        # Only the named levels are probed and filled, each with the
        # prefix of the step at its position.
        caches = pwcs.caches()
        assert list(caches) == ["PL4", "PL3"]
        assert [(c.stats.hits, c.stats.misses) for c in caches.values()] \
            == [(1, 1), (1, 1)]
        assert [[key for pwc_set in c._sets for key in pwc_set]
                for c in caches.values()] == [[0x12345 >> 27],
                                              [0x12345 >> 18]]

    def test_pwc_hit_rates_observable(self, radix_setup):
        table, hierarchy = radix_setup
        pwcs = PwcSet(("PL4", "PL3", "PL2", "PL1"))
        walker = PageTableWalker(table, hierarchy, core_id=0, pwcs=pwcs)
        walk(walker, 0.0, 0x12345)
        walk(walker, 10_000.0, 0x12345)
        pl1 = pwcs.caches()["PL1"].stats
        assert (pl1.hits, pl1.misses) == (1, 1)


class TestAsidTaggedPwc:
    """Tenants sharing one slot's PWCs: the walker tags each key."""

    def tenant_walkers(self, hierarchy):
        pwcs = PwcSet(("PL4", "PL3", "PL2", "PL1"))
        walkers = []
        for asid in (0, 1):
            table = RadixPageTable(FrameAllocator(64 * MIB))
            table.map_page(0x12345, pfn=5 + asid)
            walkers.append(PageTableWalker(table, hierarchy, core_id=0,
                                           pwcs=pwcs, asid=asid))
        return pwcs, walkers

    def test_same_prefix_of_another_tenant_misses(self, hierarchy):
        pwcs, (first, second) = self.tenant_walkers(hierarchy)
        walk(first, 0.0, 0x12345)
        _, accesses = walk(second, 10_000.0, 0x12345)
        assert accesses == 4
        assert pwc_hits(pwcs) == dict.fromkeys(("PL4", "PL3", "PL2",
                                                "PL1"), 0)
        _, again = walk(second, 20_000.0, 0x12345)
        assert again == 0
        assert pwc_hits(pwcs)["PL1"] == 1

    def test_keys_tagged_and_tag_zero_is_identity(self, hierarchy):
        pwcs, (first, second) = self.tenant_walkers(hierarchy)
        walk(first, 0.0, 0x12345)
        walk(second, 10_000.0, 0x12345)
        pl1 = pwcs.caches()["PL1"]
        keys = {key for pwc_set in pl1._sets for key in pwc_set}
        assert keys == {0x12345, 0x12345 | asid_tag(1)}


class TestBypass:
    """One flag per walker: every PTE read bypasses the L1, or none."""

    def test_bypass_keeps_ptes_out_of_l1(self, radix_setup):
        table, hierarchy = radix_setup
        walker = PageTableWalker(table, hierarchy, core_id=0, bypass=True)
        walk(walker, 0.0, 0x12345)
        assert hierarchy.l1ds[0].stats.metadata.accesses == 0
        assert hierarchy.stats.l1_bypasses == 4

    def test_no_bypass_fills_l1(self, radix_setup):
        table, hierarchy = radix_setup
        walker = PageTableWalker(table, hierarchy, core_id=0,
                                 bypass=False)
        walk(walker, 0.0, 0x12345)
        assert hierarchy.stats.l1_bypasses == 0
        kinds = [packed >> 1 for cache_set in hierarchy.l1ds[0]._sets
                 for packed in cache_set.values()]
        assert kinds == [KIND_METADATA] * 4

    def test_no_bypass_on_flattened_or_parallel_walks(self):
        flat_hierarchy = build_ndp_hierarchy(1, HBM2)
        flat = FlattenedPageTable(FrameAllocator(256 * MIB))
        flat.map_page(0x12345, pfn=5)
        _, accesses = walk(PageTableWalker(flat, flat_hierarchy, core_id=0,
                                           bypass=False), 0.0, 0x12345)
        assert accesses == 3
        assert flat_hierarchy.stats.l1_bypasses == 0
        assert flat_hierarchy.l1ds[0].stats.metadata.accesses == 3

        ech_hierarchy = build_ndp_hierarchy(1, HBM2)
        ech = ElasticCuckooPageTable(FrameAllocator(256 * MIB),
                                     initial_entries=1 << 10)
        ech.map_page(7, pfn=1)
        walk(PageTableWalker(ech, ech_hierarchy, core_id=0, bypass=False),
             0.0, 7)
        assert ech_hierarchy.stats.l1_bypasses == 0
        assert ech_hierarchy.l1ds[0].stats.metadata.accesses == 2

    def test_bypass_covers_every_parallel_probe(self, hierarchy):
        table = ElasticCuckooPageTable(FrameAllocator(256 * MIB),
                                       initial_entries=1 << 10)
        table.map_page(7, pfn=1)
        walker = PageTableWalker(table, hierarchy, core_id=0, bypass=True)
        walk(walker, 0.0, 7)
        assert hierarchy.stats.l1_bypasses == 2
        assert hierarchy.l1ds[0].stats.metadata.accesses == 0


class TestParallelStages:
    def test_ech_walk_is_single_parallel_stage(self, hierarchy):
        allocator = FrameAllocator(256 * MIB)
        table = ElasticCuckooPageTable(allocator, initial_entries=1 << 10)
        table.map_page(7, pfn=1)
        walker = PageTableWalker(table, hierarchy, core_id=0)
        _, accesses = walk(walker, 0.0, 7)
        assert accesses == 2

    def test_parallel_latency_is_max_not_sum(self, hierarchy):
        allocator = FrameAllocator(256 * MIB)
        table = ElasticCuckooPageTable(allocator, initial_entries=1 << 10)
        table.map_page(7, pfn=1)
        walker = PageTableWalker(table, hierarchy, core_id=0)
        parallel, _ = walk(walker, 0.0, 7)

        radix = RadixPageTable(FrameAllocator(64 * MIB))
        radix.map_page(7, pfn=1)
        seq_hierarchy = build_ndp_hierarchy(1, HBM2)
        seq, _ = walk(PageTableWalker(radix, seq_hierarchy, core_id=0),
                      0.0, 7)
        # 2 parallel probes must be well under 4 sequential accesses.
        assert parallel < seq

    def test_ideal_walk_free(self, hierarchy):
        table = IdealPageTable()
        table.map_page(3, pfn=1)
        walker = PageTableWalker(table, hierarchy, core_id=0)
        latency, accesses = walk(walker, 0.0, 3)
        assert latency == 0.0
        assert accesses == 0


#: Pages a differential sequence walks: two dense runs (shared PL1/PL2
#: prefixes, hits in small PWCs) and a sparse spread (distinct PL3/PL4
#: prefixes, PWC evictions).
DIFF_PAGES = ([0x12345 + i for i in range(24)]
              + [0x40000 + 97 * i for i in range(24)]
              + [(i << 27) + 0x3000 for i in range(1, 9)])

#: One operation: (cycles since the previous one, walk or data
#: access, page index or data line).
OPS = st.lists(
    st.tuples(st.integers(0, 500), st.booleans(),
              st.integers(0, len(DIFF_PAGES) - 1)),
    min_size=60, max_size=200)


def small_hierarchy(shape):
    """A one-core hierarchy with a 2 KB 2-way L1 (and, on the CPU
    shape, small L2 and L3), so PTE and data lines evict each other."""
    if shape == "ndp":
        return build_ndp_hierarchy(1, HBM2, l1_size=2048, l1_assoc=2)
    return build_cpu_hierarchy(
        1, DDR4_2400, l1_size=2048, l1_assoc=2, l2_size=8192,
        l2_assoc=2, l3_per_core=16384, l3_assoc=2)


def walker_world(mechanism, shape, table, asid=0):
    """One walker over ``table`` with ``mechanism``'s PWC levels and
    bypass flag, in front of a small private hierarchy."""
    spec = get_mechanism(mechanism)
    pwcs = PwcSet(spec.pwc_levels, entries=4, associativity=2)
    return PageTableWalker(table, small_hierarchy(shape), core_id=0,
                           pwcs=pwcs, bypass=spec.bypass_ptes, asid=asid)


def hierarchy_state(hierarchy):
    """Every counter of a walker's private hierarchy, and its L1's sets
    in LRU order (oldest line first, with its packed kind and dirty
    bits)."""
    caches = [hierarchy.l1ds[0]]
    if hierarchy.l2s is not None:
        caches += [hierarchy.l2s[0], hierarchy.l3]
    return {
        "caches": [(cache.stats.data.hits, cache.stats.data.misses,
                    cache.stats.metadata.hits, cache.stats.metadata.misses,
                    cache.stats.writebacks,
                    cache.stats.data_evicted_by_metadata)
                   for cache in caches],
        "hierarchy": (hierarchy.stats.accesses,
                      hierarchy.stats.l1_bypasses,
                      hierarchy.stats.dram_reads),
        "dram": (list(hierarchy.dram.stats.kind_counts),
                 hierarchy.dram.stats.row_hits,
                 hierarchy.dram.stats.row_misses),
        "l1_sets": [list(cache_set.items())
                    for cache_set in hierarchy.l1ds[0]._sets],
    }


class ReferenceWalk:
    """The walker's flat path spelled out: probe-and-fill the PWC of
    each step's level (named by its position in the table's
    ``level_names``) on one :class:`LruSets` model per level, resume
    below the deepest hit, and read every remaining PTE through a twin
    hierarchy's ``access_fast`` (no inlined L1 hit) with the
    mechanism's one bypass flag."""

    def __init__(self, walker, hierarchy, lru_sets, bypass):
        self.hierarchy = hierarchy
        self.latency = float(walker.pwcs.latency)
        self.tag = walker.asid_tag
        self.bypass = bypass
        self.level_names = walker.table.level_names
        # level -> (model, [hits, misses])
        self.pwcs = {level: (lru_sets(cache.num_sets, cache.associativity),
                             [0, 0])
                     for level, cache in walker.pwcs.caches().items()}
        self.walks = self.reads = 0

    def walk(self, now, flat):
        start = 0
        for depth, ((_, key), level) in enumerate(
                zip(flat, self.level_names), 1):
            if level in self.pwcs:
                model, counts = self.pwcs[level]
                hit, _ = model.access(key | self.tag)
                counts[0 if hit else 1] += 1
                if hit:
                    start = depth
        clock = now + self.latency
        for pte_paddr, _ in flat[start:]:
            clock += self.hierarchy.access_fast(
                clock, pte_paddr, KIND_METADATA, 0, 0, self.bypass)
        self.walks += 1
        self.reads += len(flat) - start
        return clock - now


class TestFlatPlanDifferential:
    """``walk_from_plan``'s flat path (inlined PWC probe and L1
    metadata hit) against :class:`ReferenceWalk`, which takes each
    step as a single access: the same latency for every walk, the same
    walk and PWC counters, the same PWC sets and the same hierarchy
    counters and L1 sets in LRU order at the end."""

    @pytest.mark.parametrize("mechanism,shape", [
        ("radix", "ndp"), ("radix", "cpu"), ("ndpage", "ndp"),
        ("ndpage-flatten-only", "ndp"), ("ndpage-bypass-only", "cpu"),
    ])
    @given(ops=OPS)
    @settings(max_examples=25, deadline=None)
    def test_flat_matches_single_step_stages(self, lru_sets, mechanism,
                                             shape, ops):
        self.check(lru_sets, mechanism, shape, ops, asid=0)

    @pytest.mark.parametrize("mechanism", ["radix", "ndpage"])
    @given(ops=OPS)
    @settings(max_examples=15, deadline=None)
    def test_tenant_tagged_keys(self, lru_sets, mechanism, ops):
        self.check(lru_sets, mechanism, "ndp", ops, asid=3)

    def check(self, lru_sets, mechanism, shape, ops, asid):
        table = get_mechanism(mechanism).table(FrameAllocator(1024 * MIB))
        for pfn, page in enumerate(DIFF_PAGES, start=1):
            table.map_page(page, pfn=pfn)
        walker = walker_world(mechanism, shape, table, asid)
        reference = ReferenceWalk(walker, small_hierarchy(shape), lru_sets,
                                  get_mechanism(mechanism).bypass_ptes)
        now = 0.0
        for gap, is_walk, index in ops:
            now += gap
            if not is_walk:
                # Data traffic competes with PTE lines for the L1.
                paddr = index * 3 * 64
                for hierarchy in (walker.hierarchy, reference.hierarchy):
                    hierarchy.access_fast(now, paddr, KIND_DATA, 1, 0, 0)
                continue
            flat, probes, _ = walker.plan_info(DIFF_PAGES[index])
            assert probes is None
            assert walker.walk_from_plan(now, flat, None) \
                == reference.walk(now, flat)
        stats = walker.stats
        assert (stats.walks, stats.memory_accesses) \
            == (reference.walks, reference.reads)
        for level, cache in walker.pwcs.caches().items():
            model, counts = reference.pwcs[level]
            assert [list(pwc_set) for pwc_set in cache._sets] \
                == model.sets, level
            assert [cache.stats.hits, cache.stats.misses] == counts, level
        assert hierarchy_state(walker.hierarchy) \
            == hierarchy_state(reference.hierarchy)
