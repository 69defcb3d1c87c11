"""Tests for the OS memory manager: demand paging, THP, reclaim."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.flattened import FlattenedPageTable
from repro.vm.address import (
    ENTRIES_PER_NODE,
    HUGE_PAGE_SHIFT,
    LEVEL_BITS,
    PAGE_SHIFT,
    PAGE_SIZE,
)
from repro.vm.cuckoo import ElasticCuckooPageTable
from repro.vm.frames import FRAMES_PER_BLOCK, FrameAllocator, OutOfMemoryError
from repro.vm.ideal import IdealPageTable
from repro.vm.os_model import OSMemoryManager, PagingPolicy
from repro.vm.radix import RadixPageTable, TableNode

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
    """Touch every page of a VA range through one ``os.ensure_mapped``
    batch; return (pages that faulted, their total fault cycles)."""
    before = os.stats.minor_faults + os.stats.huge_faults
    cycles = os.ensure_mapped(
        range(base_vaddr >> PAGE_SHIFT, (base_vaddr + length) >> PAGE_SHIFT),
        site=site)
    return os.stats.minor_faults + os.stats.huge_faults - before, cycles


def make_os(phys=64 * MIB, policy=PagingPolicy.SMALL, frag=0.0,
            promo=1.0, **alloc_kwargs):
    allocator = FrameAllocator(phys, fragmentation=frag, **alloc_kwargs)
    table = RadixPageTable(allocator)
    return OSMemoryManager(allocator, table, policy=policy,
                           thp_promotion_fraction=promo)


class TestDemandPaging:
    def test_first_touch_faults(self):
        os = make_os()
        cycles = os.ensure_mapped([0x1_0000])
        assert cycles == os.costs.minor_fault_cycles
        assert os.stats.minor_faults == 1

    def test_second_touch_free(self):
        os = make_os()
        os.ensure_mapped([0x1_0000])
        assert os.ensure_mapped([0x1_0000]) == 0.0
        # A batch's repeat touches are free too: one fault, one charge.
        assert os.ensure_mapped([7, 7, 7]) == os.costs.minor_fault_cycles
        assert os.stats.minor_faults == 2

    def test_distinct_pages_fault_separately(self):
        os = make_os()
        os.ensure_mapped([0, 1])
        assert os.stats.minor_faults == 2

    def test_mapping_installed(self):
        os = make_os()
        os.ensure_mapped([5])
        assert os.page_table.lookup(5) is not None

    def test_fault_cycles_accumulate(self):
        os = make_os()
        os.ensure_mapped([0])
        os.ensure_mapped([1])
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
        os.ensure_mapped([1 << 28])  # new subtree
        assert os.page_table.table_bytes() > before


class TestHugePolicy:
    def test_huge_fault_maps_whole_region(self):
        os = make_os(policy=PagingPolicy.HUGE)
        cycles = os.ensure_mapped([0])
        assert cycles == os.costs.huge_fault_cycles
        assert os.stats.huge_faults == 1
        translation = os.page_table.lookup(100)
        assert translation is not None
        assert translation.page_shift == HUGE_PAGE_SHIFT

    def test_neighbouring_touch_in_region_free(self):
        os = make_os(policy=PagingPolicy.HUGE)
        os.ensure_mapped([0])
        assert os.ensure_mapped([100]) == 0.0
        # Within one batch, the huge fault covers the later touches.
        assert os.ensure_mapped([512, 700, 1000]) \
            == os.costs.huge_fault_cycles
        assert os.stats.huge_faults == 2

    def test_promotion_fraction_zero_degenerates_to_small(self):
        os = make_os(policy=PagingPolicy.HUGE, promo=0.0)
        os.ensure_mapped([0])
        assert os.stats.huge_faults == 0
        assert os.stats.minor_faults == 1
        assert os.stats.huge_fallbacks == 1

    def test_promotion_fraction_partial(self):
        os = make_os(phys=512 * MIB, policy=PagingPolicy.HUGE, promo=0.5)
        os.ensure_mapped(region_base_page(region) for region in range(100))
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
            os.ensure_mapped([region_base_page(touched)])
            touched += 1
        cycles = os.ensure_mapped([region_base_page(touched)])
        assert os.stats.huge_fallbacks >= 1
        assert os.stats.compactions >= 1
        assert cycles >= os.costs.compaction_cycles

    def test_fallback_region_stays_4kb(self):
        os = make_os(policy=PagingPolicy.HUGE, promo=0.0)
        os.ensure_mapped([0, 1])
        assert os.stats.minor_faults == 2
        assert os.stats.huge_fallbacks == 2

    def test_ideal_tables_never_go_huge(self):
        from repro.vm.ideal import IdealPageTable
        allocator = FrameAllocator(64 * MIB)
        os = OSMemoryManager(allocator, IdealPageTable(),
                             policy=PagingPolicy.HUGE)
        os.ensure_mapped([0])
        assert os.stats.huge_faults == 0
        assert os.stats.minor_faults == 1


class TestReclaim:
    def test_small_pages_reclaimed_under_pressure(self):
        os = make_os(phys=4 * MIB)
        os.ensure_mapped(range(os.allocator.num_frames + 50))
        assert os.stats.reclaims >= 50
        # Early pages were evicted (FIFO) to make room.
        assert os.page_table.lookup(0) is None

    def test_reclaimed_page_refaults(self):
        os = make_os(phys=4 * MIB)
        os.ensure_mapped(range(os.allocator.num_frames + 10))
        faults_before = os.stats.minor_faults
        os.ensure_mapped([0])  # page 0 was reclaimed
        assert os.stats.minor_faults == faults_before + 1

    def test_huge_mappings_broken_up_as_last_resort(self):
        os = make_os(phys=8 * MIB, policy=PagingPolicy.HUGE)
        # Fill memory entirely with huge mappings.
        region = 0
        while os.allocator.free_block_count:
            os.ensure_mapped([region_base_page(region)])
            region += 1
        # Burn remaining small frames, then demand more.
        os.ensure_mapped(range(1 << 28,
                               (1 << 28) + os.allocator.free_frames + 5))
        assert os.stats.reclaims > 0


class TestReclaimUnderSustainedPressure:
    """_reclaim_one corner cases: pool exhaustion, promotion-then-
    reclaim interleavings, stale records, and the reclaim hooks."""

    def test_sustained_pressure_is_stable(self, mapped_pages):
        """Faulting far past capacity keeps working set-sized memory
        resident and never leaks frames."""
        os = make_os(phys=4 * MIB)
        capacity = os.allocator.num_frames
        os.ensure_mapped(range(3 * capacity))
        assert os.stats.reclaims >= 2 * capacity - 100
        # Conservation: every frame is either mapped or free.
        assert os.allocator.free_frames >= 0
        assert mapped_pages(os.page_table) <= capacity
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
                os.ensure_mapped([i])
                assert os.page_table.lookup(i) is not None

    def test_stale_records_skipped(self):
        """A record whose page was unmapped behind the OS's back (a
        peer's cross-tenant reclaim does this) must be skipped, not
        double-freed."""
        os = make_os()
        os.ensure_mapped([0, 1])
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
        small_base = region_base_page(10_000)
        touched_small = 0
        capacity = os.allocator.num_frames
        while os.stats.reclaims < 20:
            os.ensure_mapped([region_base_page(region)])
            region += 1
            os.ensure_mapped(range(small_base + touched_small,
                                   small_base + touched_small + 64))
            touched_small += 64
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
            os.ensure_mapped([region_base_page(region)])
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
        os.ensure_mapped(range(100))
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
        os.ensure_mapped(range(allocator.num_frames + 20))
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
        other.ensure_mapped([0])

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
            os.ensure_mapped([page])
            page += 1
        os._lru_frames.clear()
        os.ensure_mapped([page])  # must not raise
        assert calls
        assert other.page_table.lookup(0) is None


class TestEchRehashCharging:
    def test_rehash_cost_charged_on_fault(self):
        allocator = FrameAllocator(256 * MIB)
        table = ElasticCuckooPageTable(allocator, initial_entries=64,
                                       resize_threshold=0.5)
        os = OSMemoryManager(allocator, table)
        # Batches of 1 to 19 pages: the charge is booked per batch,
        # whether or not the batch grew the table.
        total = 0.0
        start = 0
        while start < 200:
            stop = min(200, start + 1 + start % 19)
            total += os.ensure_mapped(range(start, stop))
            start = stop
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
    """``ensure_mapped`` (the warmup's call) and
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
            cycles = mapped.ensure_mapped([addr // PAGE_SIZE],
                                          site=addr % 3)
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
        assert os.ensure_mapped([0x1_0000]) > 0
        assert os.ensure_mapped([0x1_0000, 0x1_0000]) == 0.0
        assert calls == []


class _WouldFault(Exception):
    pass


class _Refusing:
    """An allocator stand-in whose first allocation ends the probe."""

    def alloc_frame(self, site=0):
        raise _WouldFault


def would_fault(os, page):
    """Whether ``os.ensure_mapped`` would take a fault for ``page``,
    asked without taking it: a fault's first step, a huge-page
    attempt or a 4 KB frame, raises before it changes any state."""
    def refuse(page, site):
        raise _WouldFault

    allocator = os.allocator
    os.allocator = _Refusing()
    os._fault_huge = refuse
    try:
        os.ensure_mapped([page])
    except _WouldFault:
        return True
    finally:
        os.allocator = allocator
        del os._fault_huge
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
    assert allocator.free_frames \
        == spare_frames + whole_blocks * FRAMES_PER_BLOCK


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
                os.ensure_mapped([page], site=index)
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


def reference_ensure_mapped(os, page, site=0):
    """The reference model: the fault path as it was before faults
    were batched.  One page at a time, its own resident check, and
    every charge (minor fault, ECH rehash, shootdown drain) and the
    NUMA fault-site note per fault.  Returns the fault's cycles."""
    if page in os.resident or (
            os._huge and huge_region_of(page) in os._huge_regions):
        return 0.0
    if os._note_fault_site is not None:
        os._note_fault_site(site)
    if os._huge:
        cycles, mapped = os._fault_huge(page, site)
    else:
        cycles, mapped = 0, False
    if not mapped:
        allocator = os.allocator
        try:
            frame = allocator.alloc_frame(site)
        except OutOfMemoryError:
            frame = os._retrying(allocator.alloc_frame, site)
        try:
            os.page_table.map_page(page, frame, PAGE_SHIFT)
        except OutOfMemoryError:
            os._retrying(os.page_table.map_page, page, frame, PAGE_SHIFT)
        os._lru_frames.append((page, frame, False))
        os.resident.add(page)
        os.stats.minor_faults += 1
        cycles += os.costs.minor_fault_cycles
    if os._is_ech:
        rehashed = os.page_table.stats.rehashed_entries
        cycles += ((rehashed - os._last_rehashed)
                   * os.costs.ech_rehash_cycles_per_entry)
        os._last_rehashed = rehashed
    if os._extra_fault_cycles is not None:
        cycles += os._extra_fault_cycles()
    os.stats.fault_cycles += cycles
    return cycles


#: The batch differential's pages: 24 per 2 MB region over regions 0,
#: 1, 2 and 4 of three 1 GB ranges, so the radix tree builds three PL2
#: nodes and twelve leaves, and the flattened table runs out of whole
#: blocks for its third node (that batch raises).
BATCH_UNIVERSE = [base + region * ENTRIES_PER_NODE + offset
                  for base in (0, 1 << 18, 2 << 18)
                  for region in (0, 1, 2, 4)
                  for offset in range(0, 48, 2)]


@st.composite
def batch_pages(draw):
    """Up to 600 touches: strided sweeps over the universe (enough
    distinct pages to reclaim), each followed by scattered touches
    (repeats)."""
    universe = BATCH_UNIVERSE
    pages = []
    for _ in range(draw(st.integers(1, 5))):
        start = draw(st.integers(0, len(universe) - 1))
        step = draw(st.sampled_from([1, 2, 5, -1]))
        pages.extend(universe[(start + i * step) % len(universe)]
                     for i in range(draw(st.integers(1, 200))))
        pages.extend(draw(st.lists(st.sampled_from(universe),
                                   max_size=20)))
    return pages[:600]


BATCH_PAGES = batch_pages()

#: Batch lengths, used in turn until the pages run out.
BATCH_CUTS = st.lists(st.integers(1, 300), min_size=1, max_size=8)


def batch_pair(table_name, policy_name, hooks=False):
    """Two identical managers: one for the reference model, one for
    the batched path.  Memory is squeezed to 24 spare frames, plus
    one whole block for huge pages and two for flattened nodes, so
    reclaim runs inside batches; the ``ech-grow`` table instead grows
    from 16 slots a way in ample memory (growth that runs out of
    memory breaks the table: ROADMAP Open item 7).  With ``hooks``,
    every reclaim unmap accrues 7 shootdown cycles that the next
    fault (or batch) drains."""
    managers = []
    for _ in range(2):
        if table_name == "ech-grow":
            allocator = FrameAllocator(64 * MIB)
            table = ElasticCuckooPageTable(allocator, initial_entries=16,
                                           resize_threshold=0.5)
        else:
            allocator = FrameAllocator(12 * MIB, reserved_bytes=0)
            table = TABLES[table_name](allocator)
        policy, fraction = POLICIES[policy_name]
        pending = [0]

        def unmap(page, huge, pending=pending):
            pending[0] += 7

        def drain(pending=pending):
            cycles, pending[0] = pending[0], 0
            return cycles

        os = OSMemoryManager(allocator, table, policy=policy,
                             thp_promotion_fraction=fraction,
                             **(dict(on_unmap=unmap,
                                     extra_fault_cycles=drain)
                                if hooks else {}))
        if table_name == "flattened":
            squeeze(allocator, spare_frames=24, whole_blocks=2)
        elif table_name != "ech-grow":
            squeeze(allocator, spare_frames=24, whole_blocks=int(os._huge))
        managers.append(os)
    return managers


def allocator_state(allocator):
    """Counters and every free or partly carved frame, in order."""
    return (allocator.stats, list(allocator._free_blocks),
            list(allocator._free_frames),
            sorted((site, partial.first_frame, partial.next_offset)
                   for site, partial in allocator._partials.items()))


def leaves_by_descent(table):
    """Leaf nodes reachable from the root, keyed like the table's leaf
    index: radix PL1 nodes by ``page >> 9``, flattened nodes by
    ``page >> 18``; None for tables without one."""
    if isinstance(table, RadixPageTable):
        return {(i4 << 2 * LEVEL_BITS) | (i3 << LEVEL_BITS) | i2: leaf
                for i4, pl3 in table._root.entries.items()
                for i3, pl2 in pl3.entries.items()
                for i2, leaf in pl2.entries.items()
                if type(leaf) is TableNode}
    if isinstance(table, FlattenedPageTable):
        return {(i4 << LEVEL_BITS) | i3: flat
                for i4, pl3 in table._root.entries.items()
                for i3, flat in pl3.entries.items()}
    return None


def assert_same_state(reference, batched, pages):
    assert batched.resident == reference.resident
    assert list(batched._lru_frames) == list(reference._lru_frames)
    assert batched._huge_regions == reference._huge_regions
    assert batched.stats == reference.stats
    assert (allocator_state(batched.allocator)
            == allocator_state(reference.allocator))
    for page in pages:
        assert (batched.page_table.lookup(page)
                == reference.page_table.lookup(page)), f"page {page:#x}"
    for os in (reference, batched):
        leaves = leaves_by_descent(os.page_table)
        if leaves is not None:
            assert os.page_table._leaves == leaves


def run_batches(table_name, policy_name, pages, cuts, hooks=False):
    """Feed ``pages`` to both managers, split into batches of the
    ``cuts`` lengths in turn (site: the batch number mod 3), and
    compare after every batch.  A batch that raises raises on both
    sides, at the same page.  Returns the batched manager and the
    batches that raised."""
    reference, batched = batch_pair(table_name, policy_name, hooks)
    start = turn = raised = 0
    while start < len(pages):
        batch = pages[start:start + cuts[turn % len(cuts)]]
        site = turn % 3
        expected, reference_error = 0, None
        try:
            for page in batch:
                expected += reference_ensure_mapped(reference, page, site)
        except OutOfMemoryError:
            reference_error = OutOfMemoryError
        try:
            cycles, error = batched.ensure_mapped(batch, site), None
        except OutOfMemoryError:
            cycles, error = None, OutOfMemoryError
        assert error is reference_error
        if error is None:
            assert cycles == expected
        else:
            raised += 1
        assert_same_state(reference, batched, batch)
        start += len(batch)
        turn += 1
    assert_same_state(reference, batched, BATCH_UNIVERSE)
    return batched, raised


class TestBatchedFaults:
    """Differential test: ``ensure_mapped`` over VPN batches against
    the page-at-a-time reference model, on every table and policy,
    with repeats, huge regions and reclaim inside batches."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("table", sorted(TABLES))
    @given(pages=BATCH_PAGES, cuts=BATCH_CUTS)
    @settings(max_examples=40, deadline=None)
    def test_batches_match_page_at_a_time(self, table, policy, pages,
                                          cuts):
        run_batches(table, policy, pages, cuts)

    @given(pages=BATCH_PAGES, cuts=BATCH_CUTS)
    @settings(max_examples=40, deadline=None)
    def test_growing_ech_charges_match(self, pages, cuts):
        run_batches("ech-grow", "small", pages, cuts)

    @given(pages=BATCH_PAGES, cuts=BATCH_CUTS)
    @settings(max_examples=40, deadline=None)
    def test_shootdown_drain_matches(self, pages, cuts):
        # Radix holds at most 16 table frames here, so no batch raises
        # (a raising fault's shootdowns are drained by its batch, not
        # left for the next fault).
        run_batches("radix", "small", pages, cuts, hooks=True)

    @pytest.mark.parametrize("table", sorted(TABLES) + ["ech-grow"])
    def test_sizing(self, table):
        """The configs reach what the differential must cover: reclaim
        inside batches, ECH growth, 2 MB faults and a raising batch."""
        os, raised = run_batches(table, "thp-0.5", BATCH_UNIVERSE * 2,
                                 [300, 1, 150])
        if table == "ech-grow":
            assert os.page_table.stats.resizes > 0
        else:
            assert os.stats.reclaims > 0
        assert (os.stats.huge_faults > 0) == (table == "radix")
        assert bool(raised) == (table == "flattened")

    def test_faults_before_a_raise_stay_booked(self):
        _, os = batch_pair("flattened", "small")
        third_gb = 2 << 18    # past the two nodes' whole blocks
        with pytest.raises(OutOfMemoryError):
            os.ensure_mapped([0, 1, 1 << 18, 1, 2, third_gb, 3])
        costs = os.costs
        assert os.stats.minor_faults == 4
        # The raising fault reclaimed all four before it gave up.
        assert os.stats.reclaims == 4 and not os.resident
        assert os.stats.fault_cycles == (4 * costs.minor_fault_cycles
                                         + 4 * costs.reclaim_cycles)


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
