"""Operating-system memory-management model.

Sits between the MMU and the page table: when a walk discovers an
unmapped page the OS takes a fault, allocates physical memory and
installs the mapping.  The model covers the behaviours the paper's
evaluation depends on:

* demand paging with per-core allocation sites (fragments contiguity);
* the transparent-huge-page policy used by the *Huge Page* mechanism,
  including compaction attempts and permanent 4 KB fallback for a
  region once contiguity is gone (Section VII-B);
* elastic-cuckoo rehash costs charged when the hash table grows;
* FIFO page reclaim under memory pressure, so long runs degrade
  gracefully instead of aborting;
* marking of PTE regions so the hardware can issue cache-bypassing
  accesses for metadata (Section V-A).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Tuple

from repro.vm.address import (
    ENTRIES_PER_NODE,
    HUGE_PAGE_SHIFT,
    PAGE_SHIFT,
    VA_MASK,
)
from repro.vm.base import PageTable
from repro.vm.cuckoo import ElasticCuckooPageTable
from repro.vm.frames import FrameAllocator, OutOfMemoryError


class PagingPolicy(enum.Enum):
    """How the OS backs anonymous memory."""

    SMALL = "4KB"       # always 4 KB pages
    HUGE = "2MB-THP"    # 2 MB when contiguity allows, 4 KB fallback


@dataclass(frozen=True)
class FaultCosts:
    """Cycle costs of OS paths, charged to the faulting core.

    Values follow the usual lore: a minor fault is on the order of a
    microsecond; a 2 MB fault must additionally zero 512x more bytes;
    compaction scans and migrates pages, costing tens of microseconds.
    """

    minor_fault_cycles: int = 1_600
    huge_fault_cycles: int = 10_400
    compaction_cycles: int = 130_000
    reclaim_cycles: int = 2_600
    ech_rehash_cycles_per_entry: int = 36


@dataclass(slots=True)
class OsStats:
    """Fault/compaction accounting for one run."""

    minor_faults: int = 0
    huge_faults: int = 0
    huge_fallbacks: int = 0
    compactions: int = 0
    reclaims: int = 0
    fault_cycles: float = 0.0
    regions_fallen_back: int = 0


@dataclass
class _FrameRecord:
    page: int
    frame: int
    huge: bool


class OSMemoryManager:
    """Demand paging + huge-page policy over one page table.

    Under multiprogramming each tenant process gets its own manager
    (private page table and reclaim list) over the *shared*
    :class:`FrameAllocator`; three optional hooks wire the managers
    together without changing single-process behaviour:

    * ``on_unmap(page, huge)`` — called after reclaim unmaps a page,
      so the system can run a TLB shootdown for it;
    * ``peer_reclaim()`` — called when this tenant has nothing left to
      evict; returns True if memory was reclaimed from another tenant
      (cross-tenant pressure), letting the allocation retry instead of
      dying on OOM;
    * ``extra_fault_cycles()`` — drained into the cycles returned by
      :meth:`ensure_translated`, charging shootdown costs to the core
      whose fault triggered the reclaim.
    """

    def __init__(self, allocator: FrameAllocator, page_table: PageTable,
                 policy: PagingPolicy = PagingPolicy.SMALL,
                 costs: FaultCosts = FaultCosts(),
                 thp_promotion_fraction: float = 1.0,
                 on_unmap=None, peer_reclaim=None,
                 extra_fault_cycles=None):
        if not 0.0 <= thp_promotion_fraction <= 1.0:
            raise ValueError("thp_promotion_fraction must be in [0, 1]")
        self.allocator = allocator
        self.page_table = page_table
        self.policy = policy
        self.costs = costs
        self._on_unmap = on_unmap
        self._peer_reclaim = peer_reclaim
        self._extra_fault_cycles = extra_fault_cycles
        # NUMA facade hook: post the faulting core before map_page so
        # page-table allocations (made under PT_ALLOC_SITE, not a core
        # site) can resolve locality.  None on the flat allocator.
        self._note_fault_site = getattr(allocator, "note_fault_site",
                                        None)
        #: Fraction of huge-eligible regions the THP machinery actually
        #: backs with 2 MB pages.  Linux promotes lazily (khugepaged)
        #: and demotes under pressure; Ingens (the paper's [23]) shows
        #: real coverage is far below 100 % on loaded systems.  Regions
        #: are selected by a deterministic hash, so coverage is
        #: insensitive to touch order.
        self.thp_promotion_fraction = thp_promotion_fraction
        self.stats = OsStats()
        self._fallback_regions: set = set()
        self._lru_frames: Deque[_FrameRecord] = deque()
        # Only the radix tree stores 2 MB leaves; other mechanisms run
        # with the SMALL policy in the paper's configuration.
        self._huge = (policy is PagingPolicy.HUGE
                      and hasattr(page_table, "huge_mappings"))
        self._is_ech = isinstance(page_table, ElasticCuckooPageTable)
        self._last_rehashed = self._rehashed_entries()

    # -- helpers -------------------------------------------------------------

    def _rehashed_entries(self) -> int:
        if self._is_ech:
            return self.page_table.stats.rehashed_entries
        return 0

    def _charge_rehash(self) -> int:
        """Cycles for ECH growth work done since the last fault (ECH
        tables only)."""
        current = self.page_table.stats.rehashed_entries
        delta = current - self._last_rehashed
        self._last_rehashed = current
        return delta * self.costs.ech_rehash_cycles_per_entry

    # -- fault handling -------------------------------------------------------

    def ensure_translated(self, vaddr: int, site: int = 0):
        """Resolve ``vaddr``'s translation, faulting it in if needed.

        Returns ``(translation, fault_cycles)``; ``fault_cycles`` is
        0.0 when the page was already mapped (the common case: this
        runs on every TLB miss, before the walk).  Returning the
        translation spares the MMU a second page-table descent after
        the walk — the walk itself never changes the mapping.
        """
        page = (vaddr & VA_MASK) >> PAGE_SHIFT
        translation = self.page_table.lookup(page)
        if translation is not None:
            return translation, 0.0
        cycles = self._fault(page, site)
        return self.page_table.lookup(page), cycles

    def ensure_mapped(self, vaddr: int, site: int = 0) -> float:
        """Map the page backing ``vaddr`` if needed; return fault cycles.

        The prefault's entry point: one table lookup per touch, since
        the caller never needs the resulting translation.
        """
        page = (vaddr & VA_MASK) >> PAGE_SHIFT
        if self.page_table.lookup(page) is not None:
            return 0.0
        return self._fault(page, site)

    def _fault(self, page: int, site: int) -> float:
        """Fault unmapped ``page`` in; return (and book) its cycles."""
        if self._note_fault_site is not None:
            self._note_fault_site(site)
        if self._huge:
            cycles = self._fault_huge(page, site)
        else:
            cycles = self._fault_small(page, site)
        if self._is_ech:
            cycles += self._charge_rehash()
        if self._extra_fault_cycles is not None:
            # Shootdown IPIs etc. raised by reclaim during this fault,
            # charged to the faulting core (multi-tenant only).
            cycles += self._extra_fault_cycles()
        self.stats.fault_cycles += cycles
        return cycles

    def _fault_small(self, page: int, site: int) -> float:
        try:
            frame = self.allocator.alloc_frame(site)
        except OutOfMemoryError:
            frame = self._retrying(self.allocator.alloc_frame, site)
        # Installing the mapping may itself allocate page-table nodes.
        try:
            self.page_table.map_page(page, frame, PAGE_SHIFT)
        except OutOfMemoryError:
            self._retrying(self.page_table.map_page, page, frame,
                           PAGE_SHIFT)
        self._lru_frames.append(_FrameRecord(page, frame, huge=False))
        self.stats.minor_faults += 1
        return self.costs.minor_fault_cycles

    def _retrying(self, operation, *args):
        """Retry an allocating operation that just ran out of memory,
        reclaiming one mapping before each attempt.

        ``_reclaim_one`` raises when nothing is left to evict, which
        bounds the loop.
        """
        while True:
            self._reclaim_one()
            try:
                return operation(*args)
            except OutOfMemoryError:
                pass

    @property
    def resident_records(self) -> int:
        """Length of the reclaim list — an upper bound on evictable
        mappings (stale records included), used by the cross-tenant
        coordinator to rank eviction victims."""
        return len(self._lru_frames)

    def reclaim_one(self) -> None:
        """Evict one mapping to free physical memory.

        Public entry point for external reclaimers (the cross-tenant
        coordinator evicting from a victim process); raises
        :class:`OutOfMemoryError` when nothing is reclaimable.
        """
        self._reclaim_one()

    def _reclaim_one(self) -> None:
        """Evict the oldest mapping (FIFO) to free physical memory.

        Small mappings are preferred; when only huge mappings remain
        the OS breaks one up (unmap + free the whole block), which is
        far more expensive — part of the huge-page churn the paper
        blames for the 8-core Huge Page slowdown.
        """
        huge_skipped = []
        try:
            while self._lru_frames:
                record = self._lru_frames.popleft()
                if record.huge:
                    huge_skipped.append(record)
                    continue
                if self.page_table.lookup(record.page) is None:
                    continue
                self.page_table.unmap_page(record.page)
                self.allocator.free_frame(record.frame)
                self.stats.reclaims += 1
                self.stats.fault_cycles += self.costs.reclaim_cycles
                if self._on_unmap is not None:
                    self._on_unmap(record.page, False)
                return
            for record in huge_skipped:
                if self.page_table.lookup(record.page) is None:
                    continue
                huge_skipped.remove(record)
                self.page_table.unmap_page(record.page)
                self.allocator.free_block(record.frame)
                self.stats.reclaims += 1
                self.stats.fault_cycles += 4 * self.costs.reclaim_cycles
                if self._on_unmap is not None:
                    self._on_unmap(record.page, True)
                return
            # Own address space exhausted: under multiprogramming, lean
            # on a co-tenant before declaring the machine out of memory.
            if self._peer_reclaim is not None and self._peer_reclaim():
                return
            raise OutOfMemoryError("nothing reclaimable: memory exhausted")
        finally:
            self._lru_frames.extendleft(reversed(huge_skipped))

    def _promotable(self, region: int) -> bool:
        """Whether khugepaged would back this region with a 2 MB page."""
        fraction = self.thp_promotion_fraction
        if fraction >= 1.0:
            return True
        if fraction <= 0.0:
            return False
        # splitmix-style hash keeps the choice stable and order-free.
        h = (region * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        return (h >> 40) % 1024 < int(fraction * 1024)

    def _fault_huge(self, page: int, site: int) -> float:
        region = page >> (HUGE_PAGE_SHIFT - PAGE_SHIFT)
        if region in self._fallback_regions:
            self.stats.huge_fallbacks += 1
            return self._fault_small(page, site)
        if not self._promotable(region):
            self._fallback_regions.add(region)
            self.stats.huge_fallbacks += 1
            return self._fault_small(page, site)

        first_frame = self.allocator.alloc_huge(site=site)
        cycles = 0.0
        if first_frame is None:
            # Contiguity exhausted: try one compaction pass, then give
            # this region up to 4 KB pages permanently.
            cycles += self.costs.compaction_cycles
            self.stats.compactions += 1
            if self.allocator.compact() > 0:
                first_frame = self.allocator.alloc_huge(site=site)
            if first_frame is None:
                self._fallback_regions.add(region)
                self.stats.regions_fallen_back += 1
                self.stats.huge_fallbacks += 1
                return cycles + self._fault_small(page, site)

        base_page = region << (HUGE_PAGE_SHIFT - PAGE_SHIFT)
        try:
            self.page_table.map_page(base_page, first_frame,
                                     HUGE_PAGE_SHIFT)
        except OutOfMemoryError:
            self._retrying(self.page_table.map_page, base_page,
                           first_frame, HUGE_PAGE_SHIFT)
        self._lru_frames.append(
            _FrameRecord(base_page, first_frame, huge=True))
        self.stats.huge_faults += 1
        return cycles + self.costs.huge_fault_cycles

    # -- metadata marking (Section V-A) ---------------------------------------

    def metadata_bytes(self) -> int:
        """Physical memory currently holding page-table structures."""
        return self.page_table.table_bytes()

    def prefault_range(self, base_vaddr: int, length: int,
                       site: int = 0) -> Tuple[int, float]:
        """Populate mappings for a VA range (dataset initialization).

        Returns (pages mapped, total fault cycles).  Used by workloads
        whose setup phase writes the whole dataset, which is what makes
        the paper's PL1/PL2 levels nearly fully occupied.
        """
        pages = 0
        cycles = 0.0
        step = 1 << PAGE_SHIFT
        addr = base_vaddr
        end = base_vaddr + length
        while addr < end:
            cost = self.ensure_mapped(addr, site=site)
            if cost:
                pages += 1
                cycles += cost
            addr += step
        return pages, cycles


def huge_region_of(page: int) -> int:
    """2 MB region index containing 4 KB-granularity VPN ``page``."""
    return page >> (HUGE_PAGE_SHIFT - PAGE_SHIFT)


def region_base_page(region: int) -> int:
    """First 4 KB VPN of 2 MB region ``region``."""
    return region << (HUGE_PAGE_SHIFT - PAGE_SHIFT)


def pages_per_huge_region() -> int:
    return ENTRIES_PER_NODE
