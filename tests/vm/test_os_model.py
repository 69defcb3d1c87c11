"""Tests for the OS memory manager: demand paging, THP, reclaim."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.flattened import FlattenedPageTable
from repro.vm.address import (
    ENTRIES_PER_NODE,
    HUGE_PAGE_SHIFT,
    PAGE_SHIFT,
    PAGE_SIZE,
)
from repro.vm.cuckoo import ElasticCuckooPageTable
from repro.vm.frames import FRAMES_PER_BLOCK, FrameAllocator, OutOfMemoryError
from repro.vm.ideal import IdealPageTable
from repro.vm.os_model import OSMemoryManager, PagingPolicy
from repro.vm.radix import RadixPageTable

MIB = 1024 ** 2


def huge_region_of(page):
    """2 MB region index containing 4 KB-granularity VPN ``page``."""
    return page >> (HUGE_PAGE_SHIFT - PAGE_SHIFT)


def region_base_page(region):
    """First 4 KB VPN of 2 MB region ``region``."""
    return region << (HUGE_PAGE_SHIFT - PAGE_SHIFT)


def pages_per_huge_region():
    return 1 << (HUGE_PAGE_SHIFT - PAGE_SHIFT)


def prefault_range(os, base_vaddr, length, site=0):
    """Touch every page of a VA range through ``os.ensure_mapped``;
    return (pages that faulted, their total fault cycles)."""
    pages = 0
    cycles = 0.0
    for addr in range(base_vaddr, base_vaddr + length, PAGE_SIZE):
        cost = os.ensure_mapped(addr, site=site)
        if cost:
            pages += 1
            cycles += cost
    return pages, cycles


def make_os(phys=64 * MIB, policy=PagingPolicy.SMALL, frag=0.0,
            promo=1.0, **alloc_kwargs):
    allocator = FrameAllocator(phys, fragmentation=frag, **alloc_kwargs)
    table = RadixPageTable(allocator)
    return OSMemoryManager(allocator, table, policy=policy,
                           thp_promotion_fraction=promo)


class TestDemandPaging:
    def test_first_touch_faults(self):
        os = make_os()
        cycles = os.ensure_mapped(0x1000_0000)
        assert cycles == os.costs.minor_fault_cycles
        assert os.stats.minor_faults == 1

    def test_second_touch_free(self):
        os = make_os()
        os.ensure_mapped(0x1000_0000)
        assert os.ensure_mapped(0x1000_0008) == 0.0

    def test_distinct_pages_fault_separately(self):
        os = make_os()
        os.ensure_mapped(0)
        os.ensure_mapped(PAGE_SIZE)
        assert os.stats.minor_faults == 2

    def test_mapping_installed(self):
        os = make_os()
        os.ensure_mapped(0x5000)
        assert os.page_table.lookup(5) is not None

    def test_fault_cycles_accumulate(self):
        os = make_os()
        os.ensure_mapped(0)
        os.ensure_mapped(PAGE_SIZE)
        assert os.stats.fault_cycles \
            == 2 * os.costs.minor_fault_cycles

    def test_prefault_range(self):
        os = make_os()
        pages, cycles = prefault_range(os, 0, 10 * PAGE_SIZE)
        assert pages == 10
        assert cycles == 10 * os.costs.minor_fault_cycles

    def test_metadata_bytes_tracks_page_table(self):
        os = make_os()
        before = os.page_table.table_bytes()
        os.ensure_mapped(1 << 40)  # new subtree
        assert os.page_table.table_bytes() > before


class TestHugePolicy:
    def test_huge_fault_maps_whole_region(self):
        os = make_os(policy=PagingPolicy.HUGE)
        cycles = os.ensure_mapped(0)
        assert cycles == os.costs.huge_fault_cycles
        assert os.stats.huge_faults == 1
        translation = os.page_table.lookup(100)
        assert translation is not None
        assert translation.page_shift == HUGE_PAGE_SHIFT

    def test_neighbouring_touch_in_region_free(self):
        os = make_os(policy=PagingPolicy.HUGE)
        os.ensure_mapped(0)
        assert os.ensure_mapped(100 * PAGE_SIZE) == 0.0

    def test_promotion_fraction_zero_degenerates_to_small(self):
        os = make_os(policy=PagingPolicy.HUGE, promo=0.0)
        os.ensure_mapped(0)
        assert os.stats.huge_faults == 0
        assert os.stats.minor_faults == 1
        assert os.stats.huge_fallbacks == 1

    def test_promotion_fraction_partial(self):
        os = make_os(phys=512 * MIB, policy=PagingPolicy.HUGE, promo=0.5)
        for region in range(100):
            os.ensure_mapped(region * (1 << HUGE_PAGE_SHIFT))
        assert 20 <= os.stats.huge_faults <= 80
        assert os.stats.huge_faults + os.stats.huge_fallbacks == 100

    def test_promotion_decision_stable(self):
        os1 = make_os(policy=PagingPolicy.HUGE, promo=0.5)
        os2 = make_os(policy=PagingPolicy.HUGE, promo=0.5)
        assert [os1._promotable(r) for r in range(64)] \
            == [os2._promotable(r) for r in range(64)]

    def test_contiguity_exhaustion_falls_back(self):
        os = make_os(phys=8 * MIB, policy=PagingPolicy.HUGE)
        os.allocator.reserved = None
        touched = 0
        while os.allocator.free_block_count:
            os.ensure_mapped(touched * (1 << HUGE_PAGE_SHIFT))
            touched += 1
        cycles = os.ensure_mapped(touched * (1 << HUGE_PAGE_SHIFT))
        assert os.stats.huge_fallbacks >= 1
        assert os.stats.compactions >= 1
        assert cycles >= os.costs.compaction_cycles

    def test_fallback_region_stays_4kb(self):
        os = make_os(policy=PagingPolicy.HUGE, promo=0.0)
        os.ensure_mapped(0)
        os.ensure_mapped(PAGE_SIZE)
        assert os.stats.minor_faults == 2
        assert os.stats.huge_fallbacks == 2

    def test_ideal_tables_never_go_huge(self):
        from repro.vm.ideal import IdealPageTable
        allocator = FrameAllocator(64 * MIB)
        os = OSMemoryManager(allocator, IdealPageTable(),
                             policy=PagingPolicy.HUGE)
        os.ensure_mapped(0)
        assert os.stats.huge_faults == 0
        assert os.stats.minor_faults == 1


class TestReclaim:
    def test_small_pages_reclaimed_under_pressure(self):
        os = make_os(phys=4 * MIB)
        pages = os.allocator.num_frames + 50
        for i in range(pages):
            os.ensure_mapped(i * PAGE_SIZE)
        assert os.stats.reclaims >= 50
        # Early pages were evicted (FIFO) to make room.
        assert os.page_table.lookup(0) is None

    def test_reclaimed_page_refaults(self):
        os = make_os(phys=4 * MIB)
        pages = os.allocator.num_frames + 10
        for i in range(pages):
            os.ensure_mapped(i * PAGE_SIZE)
        faults_before = os.stats.minor_faults
        os.ensure_mapped(0)  # page 0 was reclaimed
        assert os.stats.minor_faults == faults_before + 1

    def test_huge_mappings_broken_up_as_last_resort(self):
        os = make_os(phys=8 * MIB, policy=PagingPolicy.HUGE)
        # Fill memory entirely with huge mappings.
        region = 0
        while os.allocator.free_block_count:
            os.ensure_mapped(region * (1 << HUGE_PAGE_SHIFT))
            region += 1
        # Burn remaining small frames, then demand more.
        for i in range(os.allocator.free_frames + 5):
            os.ensure_mapped((1 << 40) + i * PAGE_SIZE)
        assert os.stats.reclaims > 0


class TestReclaimUnderSustainedPressure:
    """_reclaim_one corner cases: pool exhaustion, promotion-then-
    reclaim interleavings, stale records, and the reclaim hooks."""

    def test_sustained_pressure_is_stable(self):
        """Faulting far past capacity keeps working set-sized memory
        resident and never leaks frames."""
        os = make_os(phys=4 * MIB)
        capacity = os.allocator.num_frames
        for i in range(3 * capacity):
            os.ensure_mapped(i * PAGE_SIZE)
        assert os.stats.reclaims >= 2 * capacity - 100
        # Conservation: every frame is either mapped or free.
        assert os.allocator.free_frames >= 0
        assert os.page_table.mapped_pages <= capacity
        # FIFO: the newest pages survive, the oldest are gone.
        assert os.page_table.lookup(3 * capacity - 1) is not None
        assert os.page_table.lookup(0) is None

    def test_refault_reclaim_cycle_converges(self):
        """Ping-ponging over a 2x-capacity working set churns but
        every touch still lands a mapping."""
        os = make_os(phys=4 * MIB)
        working_set = 2 * os.allocator.num_frames
        for _ in range(3):
            for i in range(working_set):
                os.ensure_mapped(i * PAGE_SIZE)
                assert os.page_table.lookup(i) is not None

    def test_stale_records_skipped(self):
        """A record whose page was unmapped behind the OS's back (a
        peer's cross-tenant reclaim does this) must be skipped, not
        double-freed."""
        os = make_os()
        os.ensure_mapped(0)
        os.ensure_mapped(PAGE_SIZE)
        os.page_table.unmap_page(0)  # page 0's record is now stale
        frees_before = os.allocator.stats.frees
        os._reclaim_one()
        # Exactly one frame came back, and it was page 1's — the
        # stale page-0 record freed nothing.
        assert os.allocator.stats.frees == frees_before + 1
        assert os.page_table.lookup(PAGE_SIZE >> 12) is None
        assert os.stats.reclaims == 1

    def test_promotion_then_reclaim_interleaving(self):
        """Huge faults racing small faults under exhaustion: small
        pages are evicted first, huge blocks only as a last resort,
        and broken-up blocks replenish the contiguity pool."""
        os = make_os(phys=8 * MIB, policy=PagingPolicy.HUGE)
        region = 0
        # Alternate huge-region touches with 4 KB touches in fallback
        # regions until the whole pool has turned over once.
        os._fallback_regions.add(10_000)  # force a 4 KB arena
        small_base = region_base_page(10_000) * PAGE_SIZE
        touched_small = 0
        capacity = os.allocator.num_frames
        while os.stats.reclaims < 20:
            os.ensure_mapped(region * (1 << HUGE_PAGE_SHIFT))
            region += 1
            for _ in range(64):
                os.ensure_mapped(small_base
                                 + touched_small * PAGE_SIZE)
                touched_small += 1
            assert touched_small < 2 * capacity, \
                "pressure never produced reclaim"
        # Both kinds were created, and memory stayed consistent.
        assert os.stats.huge_faults > 0
        assert os.stats.minor_faults > 0
        assert os.allocator.free_frames >= 0

    def test_huge_breakup_returns_whole_block(self):
        os = make_os(phys=8 * MIB, policy=PagingPolicy.HUGE)
        region = 0
        while os.allocator.free_block_count:
            os.ensure_mapped(region * (1 << HUGE_PAGE_SHIFT))
            region += 1
        # Drop the small-page records so only huge mappings remain,
        # then force a reclaim: a whole 2 MB block must come back.
        os._lru_frames = type(os._lru_frames)(
            r for r in os._lru_frames if r[2])   # (page, frame, huge)
        fault_cycles_before = os.stats.fault_cycles
        os._reclaim_one()
        assert os.allocator.free_block_count >= 1
        assert os.stats.fault_cycles - fault_cycles_before \
            == 4 * os.costs.reclaim_cycles

    def test_exhaustion_raises_when_nothing_reclaimable(self):
        os = make_os(phys=4 * MIB)
        for i in range(100):
            os.ensure_mapped(i * PAGE_SIZE)
        os._lru_frames.clear()   # nothing left to evict
        with pytest.raises(OutOfMemoryError):
            while True:
                os._reclaim_one()

    def test_on_unmap_hook_sees_each_eviction(self):
        events = []
        allocator = FrameAllocator(4 * MIB)
        table = RadixPageTable(allocator)
        os = OSMemoryManager(allocator, table,
                             on_unmap=lambda page, huge:
                             events.append((page, huge)))
        for i in range(allocator.num_frames + 20):
            os.ensure_mapped(i * PAGE_SIZE)
        assert len(events) == os.stats.reclaims > 0
        assert all(not huge for _, huge in events)
        # FIFO order: evictions follow touch order.
        pages = [page for page, _ in events]
        assert pages == sorted(pages)

    def test_peer_reclaim_consulted_before_oom(self):
        calls = []
        allocator = FrameAllocator(4 * MIB)
        table = RadixPageTable(allocator)
        other = OSMemoryManager(allocator, RadixPageTable(allocator))
        # Give the peer something to give up.
        other.ensure_mapped(0)

        def steal():
            calls.append(True)
            try:
                other._reclaim_one()
            except OutOfMemoryError:
                return False
            return True

        os = OSMemoryManager(allocator, table, peer_reclaim=steal)
        page = 0
        while allocator.free_frames > 0:
            os.ensure_mapped(page * PAGE_SIZE)
            page += 1
        os._lru_frames.clear()
        os.ensure_mapped(page * PAGE_SIZE)  # must not raise
        assert calls
        assert other.page_table.lookup(0) is None


class TestEchRehashCharging:
    def test_rehash_cost_charged_on_fault(self):
        allocator = FrameAllocator(256 * MIB)
        table = ElasticCuckooPageTable(allocator, initial_entries=64,
                                       resize_threshold=0.5)
        os = OSMemoryManager(allocator, table)
        total = 0.0
        for i in range(200):
            total += os.ensure_mapped(i * PAGE_SIZE)
        base = 200 * os.costs.minor_fault_cycles
        expected_extra = (table.stats.rehashed_entries
                          * os.costs.ech_rehash_cycles_per_entry)
        assert total == pytest.approx(base + expected_extra)
        assert expected_extra > 0


def _radix_small():
    return make_os(phys=8 * MIB)


def _radix_thp():
    return make_os(phys=16 * MIB, policy=PagingPolicy.HUGE, frag=0.5,
                   promo=0.75)


def _ech():
    allocator = FrameAllocator(8 * MIB)
    table = ElasticCuckooPageTable(allocator, initial_entries=64,
                                   resize_threshold=0.5)
    return OSMemoryManager(allocator, table)


class TestFaultEntryPoints:
    """``ensure_mapped`` (the prefault's call) and
    ``ensure_translated`` (the MMU's) share one fault path."""

    @pytest.mark.parametrize("build", [_radix_small, _radix_thp, _ech])
    def test_mapped_and_translated_agree(self, build):
        # A footprint of 4096 pages over 8-16 MB of memory: faults,
        # THP compaction and fallback, ECH growth and FIFO reclaim.
        rng = random.Random(11)
        addrs = [rng.randrange(4096) * PAGE_SIZE + rng.randrange(PAGE_SIZE)
                 for _ in range(6000)]
        mapped, translated = build(), build()
        for addr in addrs:
            cycles = mapped.ensure_mapped(addr, site=addr % 3)
            translation, expected = translated.ensure_translated(
                addr, site=addr % 3)
            assert cycles == expected
            assert translation == translated.page_table.lookup(
                addr // PAGE_SIZE)
        assert mapped.stats == translated.stats
        assert translated.stats.reclaims > 0
        for page in range(4096):
            assert (mapped.page_table.lookup(page)
                    == translated.page_table.lookup(page))
        assert (mapped.allocator.free_frames
                == translated.allocator.free_frames)

    def test_ensure_mapped_does_no_lookup(self):
        os = make_os()
        table = os.page_table
        lookup = table.lookup
        calls = []

        def counting(page):
            calls.append(page)
            return lookup(page)

        table.lookup = counting
        assert os.ensure_mapped(0x1000_0000) > 0
        assert os.ensure_mapped(0x1000_0008) == 0.0
        assert calls == []


class _WouldFault(Exception):
    pass


def would_fault(os, page):
    """Whether ``os.ensure_mapped`` would take a fault for ``page``,
    asked without taking it."""
    def probe(page, site):
        raise _WouldFault

    os._fault = probe
    try:
        os.ensure_mapped(page << PAGE_SHIFT)
    except _WouldFault:
        return True
    finally:
        del os._fault
    return False


def squeeze(allocator, spare_frames, whole_blocks):
    """Leave ``allocator`` exactly ``whole_blocks`` whole free blocks
    and ``spare_frames`` scattered free frames: drain every frame, then
    hand those back."""
    held = set()
    while allocator.free_frames:
        held.add(allocator.alloc_frame(site=99))
    for frame in sorted(held)[:spare_frames]:
        held.remove(frame)
        allocator.free_frame(frame)
    full_blocks = [block for block in range(allocator.num_blocks)
                   if all(block * FRAMES_PER_BLOCK + i in held
                          for i in range(FRAMES_PER_BLOCK))]
    assert len(full_blocks) >= whole_blocks
    for block in full_blocks[len(full_blocks) - whole_blocks:]:
        allocator.free_block(block * FRAMES_PER_BLOCK)
    assert allocator.free_block_count == whole_blocks
    assert allocator.scattered_free_frames == spare_frames


#: The differential test's pages: 12 per 2 MB region, over two regions
#: a 0.5 THP fraction promotes (0, 4) and two it does not (1, 2).
UNIVERSE = [region * ENTRIES_PER_NODE + offset
            for region in (0, 1, 2, 4) for offset in range(12)]

TABLES = {
    "radix": RadixPageTable,
    "flattened": FlattenedPageTable,
    "ech": ElasticCuckooPageTable,
    "ideal": IdealPageTable,
}

POLICIES = {
    "small": (PagingPolicy.SMALL, 1.0),
    "thp-1.0": (PagingPolicy.HUGE, 1.0),
    "thp-0.5": (PagingPolicy.HUGE, 0.5),
}

OPERATIONS = st.lists(
    st.tuples(st.sampled_from(["mapped", "translated", "reclaim", "peer"]),
              st.integers(0, 1), st.sampled_from(UNIVERSE)),
    min_size=1, max_size=60)


def run_against_tables(table_name, policy_name, operations):
    """Replay ``operations`` on two managers over one allocator and,
    after each, check every touched page on both: ``ensure_mapped``
    would not fault iff the page table translates the page.

    Memory is squeezed so reclaim runs inside faults: 24 spare frames,
    plus two whole blocks where flattened nodes or huge pages need
    them.  Returns the two managers."""
    policy, fraction = POLICIES[policy_name]
    allocator = FrameAllocator(12 * MIB, reserved_bytes=0)  # 6 blocks
    managers = []

    def peer_of(index):
        busy = []

        def peer_reclaim():
            if busy:
                return False
            busy.append(True)
            try:
                managers[1 - index].reclaim_one()
            except OutOfMemoryError:
                return False
            finally:
                busy.pop()
            return True
        return peer_reclaim

    for index in range(2):
        managers.append(OSMemoryManager(
            allocator, TABLES[table_name](allocator), policy=policy,
            thp_promotion_fraction=fraction,
            peer_reclaim=peer_of(index)))
    huge = managers[0]._huge
    squeeze(allocator, spare_frames=24,
            whole_blocks=2 if huge or table_name == "flattened" else 0)
    touched = set()
    for operation, index, page in operations:
        os = managers[index]
        try:
            if operation == "mapped":
                touched.add(page)
                os.ensure_mapped(page << PAGE_SHIFT, site=index)
            elif operation == "translated":
                touched.add(page)
                os.ensure_translated(page << PAGE_SHIFT, site=index)
            elif operation == "reclaim":
                os.reclaim_one()
            else:
                os._peer_reclaim()
        except OutOfMemoryError:
            pass  # nothing left anywhere; the index must still hold
        for other in managers:
            for touched_page in touched:
                assert would_fault(other, touched_page) == (
                    other.page_table.lookup(touched_page) is None), (
                    f"page {touched_page:#x} after {operation}")
    return managers


class TestResidentIndex:
    """Differential test: the OS's resident index against the page
    table it shadows, under faults, reclaim, huge break-up and peer
    reclaim."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("table", sorted(TABLES))
    @given(operations=OPERATIONS)
    @settings(max_examples=25, deadline=None)
    def test_index_matches_table(self, table, policy, operations):
        run_against_tables(table, policy, operations)

    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_sizing_reclaims_inside_faults(self, table):
        a, b = run_against_tables(
            table, "small",
            [("mapped", index, page) for page in UNIVERSE
             for index in (0, 1)])
        assert a.stats.reclaims > 0 and b.stats.reclaims > 0

    @pytest.mark.parametrize("policy", ["thp-1.0", "thp-0.5"])
    def test_sizing_breaks_up_huge_pages(self, policy):
        a, _ = run_against_tables(
            "radix", policy,
            [("mapped", 0, 0), ("reclaim", 0, 0), ("mapped", 0, 1)])
        assert a.stats.huge_faults == 2 and a.stats.reclaims == 1


class TestHelpers:
    def test_region_roundtrip(self):
        assert region_base_page(huge_region_of(1000)) <= 1000
        assert huge_region_of(region_base_page(77)) == 77

    def test_pages_per_region(self):
        # A 2 MB leaf at PL2 covers exactly one PL1 node's entries.
        assert pages_per_huge_region() == ENTRIES_PER_NODE == 512

    def test_invalid_promotion_fraction(self):
        allocator = FrameAllocator(64 * MIB)
        with pytest.raises(ValueError):
            OSMemoryManager(allocator, RadixPageTable(allocator),
                            thp_promotion_fraction=1.5)
