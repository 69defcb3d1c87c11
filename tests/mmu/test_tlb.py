"""Tests for TLBs and the Table I TLB hierarchy.

Probes run where the simulator runs them: the L1 4 KB probe inlined in
:meth:`Mmu.translate_parts`, the 2 MB L1 and L2 probes in
:meth:`TlbHierarchy.lookup_after_l1_small_miss`, and the fills in
:meth:`TlbHierarchy.insert` / :meth:`Tlb.insert`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.dram import HBM2
from repro.mem.hierarchy import build_ndp_hierarchy
from repro.mmu.mmu import Mmu
from repro.mmu.tlb import Tlb, TlbHierarchy, build_tlbs
from repro.mmu.walker import PageTableWalker
from repro.sim.config import TlbParams
from repro.vm.address import HUGE_PAGE_SHIFT, PAGE_SHIFT, asid_tag
from repro.vm.base import Translation
from repro.vm.frames import FrameAllocator
from repro.vm.os_model import OSMemoryManager
from repro.vm.radix import RadixPageTable

# The named view of a translate_parts tuple lives with the MMU tests.
from test_mmu import translate

MIB = 1024 ** 2
SMALL = Translation(100, PAGE_SHIFT)
HUGE = Translation(3, HUGE_PAGE_SHIFT)
#: 4 KB pages per 2 MB page: a huge TLB key is the 4 KB key >> 9.
HUGE_KEY_SHIFT = HUGE_PAGE_SHIFT - PAGE_SHIFT

#: A hierarchy small enough that a few pages fill its sets: 2 sets of
#: 2 ways at L1 (4 KB and 2 MB alike) and 4 sets of 2 ways at L2.
SMALL_PARAMS = TlbParams(l1_small_entries=4, l1_small_assoc=2,
                         l1_huge_entries=4, l1_huge_assoc=2,
                         l2_entries=8, l2_assoc=2)


def tlb_world(params=TlbParams(), asids=(0,)):
    """One slot's TLB hierarchy shared by one MMU per ASID, each with
    its own radix table (mapped on demand, or by the caller)."""
    allocator = FrameAllocator(256 * MIB)
    hierarchy = build_ndp_hierarchy(1, HBM2)
    tlbs = build_tlbs(params)
    mmus = {}
    for asid in asids:
        table = RadixPageTable(allocator)
        walker = PageTableWalker(table, hierarchy, core_id=0)
        mmus[asid] = Mmu(0, tlbs, walker,
                         OSMemoryManager(allocator, table), asid=asid)
    return tlbs, mmus


def probe_beyond_l1(tlbs, page):
    """The 2 MB L1 and L2 probes of a lookup whose L1 4 KB probe
    missed; returns the translation found, or None."""
    return tlbs.lookup_after_l1_small_miss(page)[0]


def resident(tlb):
    """Keys of every set of ``tlb``, set by set, oldest first."""
    return [list(tlb_set) for tlb_set in tlb._sets]


@pytest.fixture
def tlbs():
    return build_tlbs(SMALL_PARAMS)


class TestSingleTlb:
    """One :class:`Tlb` (the L2, probed beyond an L1 miss)."""

    def test_cold_miss(self):
        tlbs, mmus = tlb_world()
        outcome = translate(mmus[0], 0.0, 5 << PAGE_SHIFT)
        assert not outcome.tlb_hit
        assert tlbs.l1_small.stats.misses == 1
        assert tlbs.l2.stats.misses == 1

    def test_insert_then_hit(self, tlbs):
        tlbs.l2.insert(5, SMALL)
        assert tlbs.lookup_after_l1_small_miss(5) == (SMALL, 1 + 12)
        assert tlbs.l2.stats.hits == 1

    def test_lru_within_set(self, tlbs):
        for i in range(3):  # keys i*4 share L2 set 0 (4 sets, 2 ways)
            tlbs.l2.insert(i * 4, SMALL)
        assert probe_beyond_l1(tlbs, 0) is None
        assert probe_beyond_l1(tlbs, 8) is not None

    def test_hit_refreshes_lru(self, tlbs):
        for i in range(2):
            tlbs.l2.insert(i * 4, SMALL)
        probe_beyond_l1(tlbs, 0)
        tlbs.l2.insert(8, SMALL)  # evicts key 4, not key 0
        assert probe_beyond_l1(tlbs, 0) is not None
        assert probe_beyond_l1(tlbs, 4) is None

    def test_reinsert_updates(self, tlbs):
        tlbs.l2.insert(5, SMALL)
        newer = Translation(200, PAGE_SHIFT)
        tlbs.l2.insert(5, newer)
        assert probe_beyond_l1(tlbs, 5) == newer

    def test_invalidate(self, tlbs):
        tlbs.l2.insert(5, SMALL)
        assert tlbs.l2.invalidate(5)
        assert probe_beyond_l1(tlbs, 5) is None

    def test_flush(self, tlbs):
        for i in range(8):
            tlbs.l2.insert(i, SMALL)
        tlbs.l2.flush()
        assert not any(resident(tlbs.l2))

    def test_entries_divisible_by_assoc(self):
        with pytest.raises(ValueError):
            Tlb("bad", entries=10, associativity=4, latency=1)

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_occupancy_bounded(self, keys):
        tlb = Tlb("prop", entries=64, associativity=4, latency=1)
        for key in keys:
            tlb.insert(key, SMALL)
        assert all(len(keys) <= 4 for keys in resident(tlb))


class TestHierarchy:
    def test_table1_sizes(self):
        tlbs = build_tlbs(TlbParams())
        assert tlbs.l1_small.entries == 64
        assert tlbs.l1_small.associativity == 4
        assert tlbs.l1_huge.entries == 32
        assert tlbs.l1_huge.latency == tlbs.l1_small.latency == 1
        assert tlbs.l2.entries == 1536
        assert tlbs.l2.associativity == 12
        assert tlbs.l2.latency == 12

    def test_wrong_granularity_rejected(self):
        small = Tlb("s", 64, 4, 1, page_shift=PAGE_SHIFT)
        huge = Tlb("h", 32, 4, 1, page_shift=HUGE_PAGE_SHIFT)
        l2 = Tlb("l2", 1536, 12, 12, page_shift=PAGE_SHIFT)
        with pytest.raises(ValueError):
            TlbHierarchy(l1_small=huge, l1_huge=huge, l2=l2)
        with pytest.raises(ValueError):
            TlbHierarchy(l1_small=small, l1_huge=small, l2=l2)

    def test_full_miss_costs_both_levels(self):
        tlbs, mmus = tlb_world()
        outcome = translate(mmus[0], 0.0, 42 << PAGE_SHIFT)
        assert outcome.walked
        walk = mmus[0].stats.walk_latency.total
        assert outcome.latency == 1 + 12 + walk
        assert tlbs.full_misses == 1

    def test_l1_hit_costs_one_cycle(self):
        _, mmus = tlb_world()
        translate(mmus[0], 0.0, 42 << PAGE_SHIFT)
        outcome = translate(mmus[0], 1000.0, 42 << PAGE_SHIFT)
        assert outcome.tlb_hit
        assert outcome.latency == 1

    def test_l2_hit_refills_l1(self):
        tlbs, mmus = tlb_world()
        mmu = mmus[0]
        translate(mmu, 0.0, 42 << PAGE_SHIFT)
        # Evict from the L1 by filling its set (16 sets, 4 ways).
        for i in range(1, 6):
            translate(mmu, 0.0, (42 + i * 16) << PAGE_SHIFT)
        outcome = translate(mmu, 0.0, 42 << PAGE_SHIFT)
        assert outcome.tlb_hit
        assert outcome.latency == 13  # found in L2
        # The L2 hit refilled the L1.
        assert translate(mmu, 0.0, 42 << PAGE_SHIFT).latency == 1

    def test_huge_translation_uses_huge_tlb(self):
        tlbs, mmus = tlb_world()
        mmus[0].walker.table.map_page(512 * 9, pfn=512,
                                      page_shift=HUGE_PAGE_SHIFT)
        translate(mmus[0], 0.0, (512 * 9 + 17) << PAGE_SHIFT)
        # Same 2 MB region, another 4 KB page.
        outcome = translate(mmus[0], 0.0, (512 * 9 + 400) << PAGE_SHIFT)
        assert outcome.tlb_hit
        assert outcome.latency == 1
        assert outcome.paddr == (512 + 400) << PAGE_SHIFT
        assert tlbs.l1_huge.stats.hits == 1

    def test_huge_not_in_l2(self):
        """Documented microarchitectural choice: the L2 TLB holds 4 KB
        translations only, so a 2 MB entry evicted from the small huge
        TLB must be re-walked."""
        tlbs = build_tlbs(TlbParams())
        tlbs.insert(0, HUGE)
        for region in range(1, 40):  # blow the 32-entry huge TLB
            tlbs.insert(region * 512, HUGE)
        assert probe_beyond_l1(tlbs, 0) is None

    def test_miss_rate(self):
        """The walk rate perfbench reads: full misses over lookups."""
        tlbs, mmus = tlb_world()
        for page in (1, 1, 2):
            translate(mmus[0], 0.0, page << PAGE_SHIFT)
        assert (tlbs.full_misses, tlbs.lookups) == (2, 3)
        assert tlbs.full_misses == mmus[0].stats.walks

    def test_flush(self, tlbs):
        tlbs.insert(1, SMALL)
        tlbs.insert(512, HUGE)
        tlbs.flush()
        assert probe_beyond_l1(tlbs, 1) is None
        for tlb in (tlbs.l1_small, tlbs.l1_huge, tlbs.l2):
            assert not any(resident(tlb))


class TestReinsertRecency:
    """Tlb.insert on a resident key must refresh LRU recency, exactly
    like a probe hit does."""

    def test_reinsert_moves_key_to_youngest(self):
        tlb = Tlb("t", entries=2, associativity=2, latency=1)
        tlb.insert(0, Translation(1, 12))
        tlb.insert(16, Translation(2, 12))   # same set (num_sets=1)
        tlb.insert(0, Translation(3, 12))    # reinsert: now youngest
        assert resident(tlb) == [[16, 0]]
        tlb.insert(32, Translation(4, 12))   # evicts LRU -> key 16
        assert resident(tlb) == [[0, 32]]

    def test_reinsert_updates_value(self):
        tlb = Tlb("t", entries=4, associativity=4, latency=1)
        tlb.insert(5, Translation(1, 12))
        tlb.insert(5, Translation(9, 12))
        assert tlb._sets[0][5].pfn == 9


class TestAsidTagging:
    """Multi-process keys: tagged coexistence, targeted shootdowns."""

    def test_same_vpn_different_asids_coexist(self):
        tlbs, mmus = tlb_world(asids=(0, 1, 2))
        vaddr = 0x4_2000 << PAGE_SHIFT
        first = {asid: translate(mmu, 0.0, vaddr).paddr
                 for asid, mmu in mmus.items()}
        assert len(set(first.values())) == 3  # one frame per tenant
        for asid, mmu in mmus.items():
            outcome = translate(mmu, 1000.0, vaddr)
            assert outcome.tlb_hit and outcome.latency == 1
            assert outcome.paddr == first[asid]

    def test_asid_zero_tag_is_identity(self):
        assert asid_tag(0) == 0

    def test_tag_never_moves_the_set(self):
        """Set index comes from VPN bits only (power-of-two sets)."""
        tlb = Tlb("t", entries=64, associativity=4, latency=1)
        page = 0x1234
        assert (page | asid_tag(3)) % tlb.num_sets \
            == page % tlb.num_sets

    def test_invalidate_page_hits_only_the_tagged_asid(self):
        tlbs = build_tlbs(TlbParams())
        page = 0x77
        tlbs.insert(page | asid_tag(1), Translation(1, 12))
        tlbs.insert(page | asid_tag(2), Translation(2, 12))
        assert tlbs.invalidate_page(page | asid_tag(1))
        assert probe_beyond_l1(tlbs, page | asid_tag(1)) is None
        assert probe_beyond_l1(tlbs, page | asid_tag(2)) is not None

    def test_invalidate_page_clears_l1_and_l2(self):
        tlbs = build_tlbs(TlbParams())
        key = 0x55 | asid_tag(1)
        tlbs.l1_small.insert(key, Translation(5, 12))
        tlbs.l2.insert(key, Translation(5, 12))
        assert tlbs.invalidate_page(key)
        assert not any(resident(tlbs.l1_small))
        assert not any(resident(tlbs.l2))

    def test_invalidate_huge_mapping(self):
        tlbs = build_tlbs(TlbParams())
        base_page = 512  # 2 MB-aligned VPN
        key = base_page | asid_tag(1)
        tlbs.insert(key, Translation(3, HUGE_PAGE_SHIFT))
        assert tlbs.invalidate_page(key, huge=True)
        assert not any(resident(tlbs.l1_huge))

    def test_invalidate_missing_returns_false(self):
        tlbs = build_tlbs(TlbParams())
        assert not tlbs.invalidate_page(0x99 | asid_tag(4))

    def test_negative_asid_rejected(self):
        with pytest.raises(ValueError):
            asid_tag(-1)


#: 4 KB pages and 2 MB regions (base VPNs) each tenant maps: enough to
#: overflow every set of :data:`SMALL_PARAMS`.
DIFF_SMALL = [0x2000 + 3 * i for i in range(12)]
DIFF_HUGE = [0x10000 + 512 * i for i in range(6)]
DIFF_ASIDS = (0, 3)

#: One operation: (kind, tenant, page index, 4 KB page within a 2 MB
#: region).  Kind 0 flushes, 1 invalidates the page, anything else
#: translates it.
TLB_OPS = st.lists(
    st.tuples(st.integers(0, 15), st.sampled_from(DIFF_ASIDS),
              st.integers(0, len(DIFF_SMALL) + len(DIFF_HUGE) - 1),
              st.integers(0, 511)),
    min_size=20, max_size=150)


class TestTranslatePartsDifferential:
    """The TLB hierarchy as :meth:`Mmu.translate_parts` drives it,
    against one :class:`LruSets` model per level: the same hit level
    for every translation, the same victims, and the same set contents
    in LRU order at the end.  4 KB and 2 MB mappings, two tenants
    (tag 0 and a non-zero tag) sharing the slot's TLBs, shootdowns of
    single pages and whole flushes."""

    @given(ops=TLB_OPS)
    @settings(max_examples=150, deadline=None)
    def test_matches_lru_model(self, lru_sets, ops):
        tlbs, mmus = tlb_world(SMALL_PARAMS, DIFF_ASIDS)
        levels = {"l1_small": tlbs.l1_small, "l1_huge": tlbs.l1_huge,
                  "l2": tlbs.l2}
        model = {name: lru_sets(tlb.num_sets, tlb.associativity)
                 for name, tlb in levels.items()}
        counts = {name: [0, 0] for name in levels}  # hits, misses
        frames = {}  # (asid, 4 KB page) -> frame
        for asid, mmu in mmus.items():
            table = mmu.walker.table
            for pfn, page in enumerate(DIFF_SMALL, start=1 + 100 * asid):
                table.map_page(page, pfn=pfn)
                frames[asid, page] = pfn
            for region, base in enumerate(DIFF_HUGE):
                pfn = 512 * (2 + region + 8 * asid)
                table.map_page(base, pfn=pfn, page_shift=HUGE_PAGE_SHIFT)
                frames.update(((asid, base + i), pfn + i)
                              for i in range(512))

        def probe(name, key):
            hit = model[name].touch(key)
            counts[name][0 if hit else 1] += 1
            return hit

        now = 0.0
        for kind, asid, index, offset in ops:
            huge = index >= len(DIFF_SMALL)
            page = (DIFF_HUGE[index - len(DIFF_SMALL)] + offset if huge
                    else DIFF_SMALL[index])
            key = page | asid_tag(asid)
            before = {name: {k for keys in resident(tlb) for k in keys}
                      for name, tlb in levels.items()}
            victims = {name: set() for name in levels}
            if kind == 0:
                tlbs.flush()
                for name in levels:
                    victims[name] = set(before[name])
                    model[name].clear()
            elif kind == 1:
                if huge:
                    expected = model["l1_huge"].remove(
                        key >> HUGE_KEY_SHIFT)
                else:
                    expected = model["l1_small"].remove(key)
                    expected = model["l2"].remove(key) or expected
                assert tlbs.invalidate_page(key, huge=huge) == expected
                victims = None
            else:
                now += 100.0
                outcome = translate(mmus[asid], now,
                                    (page << PAGE_SHIFT) | 8)
                if probe("l1_small", key) \
                        or probe("l1_huge", key >> HUGE_KEY_SHIFT):
                    hit, latency = True, 1
                elif probe("l2", key):
                    hit, latency = True, 1 + 12
                    victims["l1_small"].add(model["l1_small"].fill(key))
                else:
                    hit, latency = False, None
                    if huge:
                        victims["l1_huge"].add(
                            model["l1_huge"].fill(key >> HUGE_KEY_SHIFT))
                    else:
                        victims["l1_small"].add(model["l1_small"].fill(key))
                        victims["l2"].add(model["l2"].fill(key))
                assert outcome.paddr == (frames[asid, page] << PAGE_SHIFT) | 8
                assert outcome.tlb_hit == hit
                assert outcome.walked == (not hit)
                if latency is not None:
                    assert outcome.latency == latency
                for name in victims:
                    victims[name].discard(None)
                assert {name: [tlb.stats.hits, tlb.stats.misses]
                        for name, tlb in levels.items()} == counts
            if victims is not None:
                assert {name: before[name] - {
                    k for keys in resident(tlb) for k in keys}
                    for name, tlb in levels.items()} == victims
        for name, tlb in levels.items():
            assert resident(tlb) == model[name].sets, name
