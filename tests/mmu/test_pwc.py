"""Tests for page-walk caches.

A PWC is probed and filled only by the walker's fused pass in
:meth:`PageTableWalker.walk_from_plan`, so every probe here is a walk:
of a hand-built one-step plan (any key, one level) or of a real
table's plan.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mechanisms import get_mechanism
from repro.mem.dram import HBM2
from repro.mem.hierarchy import build_ndp_hierarchy
from repro.mmu.pwc import PageWalkCache, PwcSet
from repro.mmu.walker import PageTableWalker
from repro.sim.config import ndp_config
from repro.sim.runner import collect
from repro.sim.system import System
from repro.vm.address import asid_tag
from repro.vm.frames import FrameAllocator
from repro.vm.radix import RadixPageTable

MIB = 1024 ** 2


class OneLevelTable:
    """A stand-in page table that names one walk level: the walker
    pairs that level's PWC with a one-step plan."""

    def __init__(self, level):
        self.level_names = (level,)


def step_walker(pwcs, level):
    """A walker whose hand-built one-step plans probe ``pwcs``' cache
    of ``level``."""
    return PageTableWalker(OneLevelTable(level),
                           build_ndp_hierarchy(1, HBM2), core_id=0,
                           pwcs=pwcs)


def probe(walker, pwc, key):
    """Walk a one-step plan through ``pwc``; True on a PWC hit."""
    hits = pwc.stats.hits
    walker.walk_from_plan(0.0, ((0, key),), None)
    return pwc.stats.hits > hits


def one_cache(level, **geometry):
    """A walker over a one-level PWC set, and that level's cache."""
    pwcs = PwcSet((level,), **geometry)
    return step_walker(pwcs, level), pwcs.caches()[level]


def resident(pwc):
    """Keys of every set of ``pwc``, set by set, oldest first."""
    return [list(pwc_set) for pwc_set in pwc._sets]


class TestPageWalkCache:
    def test_cold_miss(self):
        walker, pwc = one_cache("PL4")
        assert not probe(walker, pwc, 0)
        assert pwc.stats.misses == 1

    def test_insert_then_hit(self):
        walker, pwc = one_cache("PL4")
        probe(walker, pwc, 0)  # the miss fills the key
        assert probe(walker, pwc, 0)

    def test_capacity_bounded(self):
        walker, pwc = one_cache("PL2", entries=8, associativity=2)
        for i in range(100):
            probe(walker, pwc, i)
        assert all(len(keys) <= 2 for keys in resident(pwc))
        assert sum(map(len, resident(pwc))) == 8

    def test_lru_refresh(self):
        walker, pwc = one_cache("PL2", entries=2, associativity=2)
        probe(walker, pwc, 0)
        probe(walker, pwc, 1)
        probe(walker, pwc, 0)
        probe(walker, pwc, 2)
        # Key 1 was LRU and evicted; key 0 survived.
        assert resident(pwc) == [[0, 2]]

    def test_geometry_validated(self):
        with pytest.raises(ValueError):
            PageWalkCache("x", entries=5, associativity=2)

    def test_flush(self):
        walker, pwc = one_cache("PL4")
        probe(walker, pwc, 0)
        pwc.flush()
        assert not probe(walker, pwc, 0)


class TestPwcSet:
    def test_levels_present(self):
        pwcs = PwcSet(("PL4", "PL3", "PL2/1"))
        assert list(pwcs.caches()) == ["PL4", "PL3", "PL2/1"]
        assert all(cache.level == level
                   for level, cache in pwcs.caches().items())

    def test_hit_rates_per_level(self):
        """A radix walk under a PL4/PL3 set probes and fills those two
        caches, paired with the first two steps, and no other."""
        table = RadixPageTable(FrameAllocator(64 * MIB))
        near, far = 0x12345, 0x12345 + (1 << 18)  # one PL4 prefix
        for pfn, page in enumerate((near, far), start=1):
            table.map_page(page, pfn=pfn)
        pwcs = PwcSet(("PL4", "PL3"))
        walker = PageTableWalker(table, build_ndp_hierarchy(1, HBM2),
                                 core_id=0, pwcs=pwcs)
        for page in (near, near, far):
            flat, _, _ = walker.plan_info(page)
            walker.walk_from_plan(0.0, flat, None)
        pl4, pl3 = pwcs.caches()["PL4"], pwcs.caches()["PL3"]
        assert (pl4.stats.hits, pl4.stats.misses) == (2, 1)
        assert (pl3.stats.hits, pl3.stats.misses) == (1, 2)
        assert sum(resident(pl4), []) == [near >> 27]
        assert sorted(sum(resident(pl3), [])) == [near >> 18, far >> 18]
        # Each walk resumes below its deepest hit (none, PL3, PL4):
        # the PL2 and PL1 steps read memory every time.
        assert walker.stats.memory_accesses == 4 + 2 + 3

    def test_merged_hit_rate(self):
        """A run reports each level's hit rate over every slot's PWC."""
        system = System(ndp_config(mechanism="radix", workload="rnd",
                                   num_cores=2, refs_per_core=400,
                                   scale=1 / 64))
        result = collect(system, system.run())
        for level in ("PL4", "PL3", "PL2", "PL1"):
            stats = [pwcs.caches()[level].stats
                     for pwcs in system.pwc_sets]
            hits = sum(s.hits for s in stats)
            assert result.pwc_hit_rates[level] \
                == hits / sum(s.accesses for s in stats)

    def test_caches_accessor_is_copy(self):
        pwcs = PwcSet(("PL4",))
        caches = pwcs.caches()
        caches.clear()
        assert "PL4" in pwcs.caches()

    def test_flush_all(self):
        pwcs = PwcSet(("PL4", "PL3"))
        walker = step_walker(pwcs, "PL4")
        pl4 = pwcs.caches()["PL4"]
        probe(walker, pl4, 1)
        pwcs.flush()
        assert not probe(walker, pl4, 1)


#: Pages the differential walks: two dense runs (shared upper
#: prefixes) and a sparse spread (distinct PL3/PL4 prefixes), so the
#: small PWCs below both hit and evict at every level.
DIFF_PAGES = ([0x12345 + 5 * i for i in range(16)]
              + [0x40000 + 700 * i for i in range(16)]
              + [(i << 27) + 0x3000 for i in range(1, 9)]
              + [(i << 18) + 0x20 for i in range(1, 9)])


class TestWalkFromPlanDifferential:
    """The fused PWC probe-and-fill of :meth:`walk_from_plan` on flat
    ``radix`` and ``ndpage`` plans, against one :class:`LruSets` model
    per level: the same hit or miss at every level of every walk, the
    same victims, the same PTE reads, and the same set contents in LRU
    order at the end."""

    @pytest.mark.parametrize("mechanism", ["radix", "ndpage"])
    @pytest.mark.parametrize("asid", [0, 3])
    @given(walks=st.lists(st.integers(0, len(DIFF_PAGES) - 1),
                          min_size=10, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_matches_lru_model(self, lru_sets, mechanism, asid, walks):
        spec = get_mechanism(mechanism)
        table = spec.table(FrameAllocator(1024 * MIB))
        for pfn, page in enumerate(DIFF_PAGES, start=1):
            table.map_page(page, pfn=pfn)
        pwcs = PwcSet(spec.pwc_levels, entries=4, associativity=2)
        walker = PageTableWalker(table, build_ndp_hierarchy(1, HBM2),
                                 core_id=0, pwcs=pwcs,
                                 bypass=spec.bypass_ptes, asid=asid)
        caches = pwcs.caches()
        model = {level: lru_sets(cache.num_sets, cache.associativity)
                 for level, cache in caches.items()}
        tag = asid_tag(asid)
        now = 0.0
        for index in walks:
            flat, probes, _ = walker.plan_info(DIFF_PAGES[index])
            assert probes is None
            expected = {}   # level -> (hit, victim)
            start = 0
            for depth, ((_, key), level) in enumerate(
                    zip(flat, table.level_names), 1):
                if level not in model:
                    continue
                expected[level] = model[level].access(key | tag)
                if expected[level][0]:
                    start = depth
            before = {level: set().union(*map(set, cache._sets))
                      for level, cache in caches.items()}
            stats = {level: (cache.stats.hits, cache.stats.misses)
                     for level, cache in caches.items()}
            reads = walker.stats.memory_accesses
            now += 1000.0
            walker.walk_from_plan(now, flat, None)
            assert walker.stats.memory_accesses - reads == len(flat) - start
            for level, cache in caches.items():
                hit, victim = expected.get(level, (None, None))
                got = (cache.stats.hits - stats[level][0],
                       cache.stats.misses - stats[level][1])
                assert got == {True: (1, 0), False: (0, 1),
                               None: (0, 0)}[hit], level
                gone = before[level] - set().union(*map(set, cache._sets))
                assert gone == ({victim} if victim is not None
                                else set()), level
        for level, cache in caches.items():
            assert resident(cache) == model[level].sets, level
