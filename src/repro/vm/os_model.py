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
  gracefully instead of aborting.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from itertools import filterfalse
from typing import Deque, Iterable, Set, Tuple

from repro.vm.address import HUGE_PAGE_SHIFT, PAGE_SHIFT, VA_MASK
from repro.vm.base import PageTable
from repro.vm.cuckoo import ElasticCuckooPageTable
from repro.vm.frames import FrameAllocator, OutOfMemoryError

#: 4 KB VPN -> 2 MB region index shift.
_REGION_SHIFT = HUGE_PAGE_SHIFT - PAGE_SHIFT


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
    * ``extra_fault_cycles()`` — drained into the cycles a fault batch
      returns, charging shootdown costs to the core whose fault
      triggered the reclaim.

    :meth:`ensure_mapped` is the one fault routine: it takes a batch
    of 4 KB VPNs (the warmup hands it a 256-reference quantum, the
    MMU's :meth:`ensure_translated` a single page) and maps, in
    order, each page that is not resident.  It keeps an exact index
    of what it has mapped: :attr:`resident` holds every 4 KB VPN it
    mapped and has not reclaimed, and, under the HUGE policy, a
    private set holds the 2 MB regions it mapped huge.  Faulting and
    reclaim are the only places that map or unmap, and each updates
    the index, so a batch is filtered on it without a table descent.
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
        #: 4 KB VPNs mapped and not reclaimed (read-only to callers).
        self.resident: Set[int] = set()
        # 2 MB regions mapped huge; read only under the HUGE policy.
        self._huge_regions: Set[int] = set()
        self._fallback_regions: set = set()
        # Reclaim FIFO of (page, frame, huge) records; a huge record's
        # page is its region's first 4 KB VPN.
        self._lru_frames: Deque[Tuple[int, int, bool]] = deque()
        # Only the radix tree stores 2 MB leaves; other mechanisms run
        # with the SMALL policy in the paper's configuration.
        self._huge = (policy is PagingPolicy.HUGE
                      and hasattr(page_table, "huge_mappings"))
        self._is_ech = isinstance(page_table, ElasticCuckooPageTable)
        self._last_rehashed = (page_table.stats.rehashed_entries
                               if self._is_ech else 0)

    # -- fault handling -------------------------------------------------------

    def ensure_translated(self, vaddr: int, site: int = 0):
        """Resolve ``vaddr``'s translation, faulting it in if needed.

        Returns ``(translation, fault_cycles)``; ``fault_cycles`` is
        0.0 when the page was already mapped.  The Ideal MMU
        translates through this on every reference; any other MMU
        calls it only when a walk plan finds the page unmapped, and
        then resolves the plan again.  A fault is a one-page batch of
        :meth:`ensure_mapped`.
        """
        page = (vaddr & VA_MASK) >> PAGE_SHIFT
        translation = self.page_table.lookup(page)
        if translation is not None:
            return translation, 0.0
        cycles = self.ensure_mapped((page,), site)
        return self.page_table.lookup(page), cycles

    def ensure_mapped(self, pages: Iterable[int], site: int = 0) -> float:
        """Fault in, in order, each page of ``pages`` (4 KB VPNs) that
        is not mapped; return (and book) the batch's fault cycles.

        The resident index filters the batch lazily, page by page, so
        a page faulted earlier in the batch filters its own later
        touches and a page reclaimed mid-batch faults again; under
        the HUGE policy a page whose 2 MB region is mapped huge is
        skipped too.  The minor-fault count, the ECH rehash charge
        and the shootdown drain are booked once per batch, and the
        NUMA fault site posted once: every summand is an integer
        number of cycles, so the totals equal a page-at-a-time
        loop's.  When a fault raises, the faults before it stay
        booked, with the ECH growth and shootdowns so far.
        """
        if self._note_fault_site is not None:
            self._note_fault_site(site)
        resident = self.resident
        table = self.page_table
        alloc_frame = self.allocator.alloc_frame
        record = self._lru_frames.append
        huge = self._huge
        huge_regions = self._huge_regions
        small = 0    # 4 KB faults completed
        cycles = 0   # completed faults' cycles besides the minor charge
        spent = 0    # compaction run before a 4 KB fallback
        try:
            for page in filterfalse(resident.__contains__, pages):
                if huge:
                    if page >> _REGION_SHIFT in huge_regions:
                        continue
                    spent, mapped = self._fault_huge(page, site)
                    if mapped:
                        cycles += spent
                        continue
                # A 4 KB fault: the data frame first, then the
                # mapping, which may itself allocate page-table nodes.
                try:
                    frame = alloc_frame(site)
                except OutOfMemoryError:
                    frame = self._retrying(alloc_frame, site)
                try:
                    table.map_page(page, frame, PAGE_SHIFT)
                except OutOfMemoryError:
                    self._retrying(table.map_page, page, frame,
                                   PAGE_SHIFT)
                record((page, frame, False))
                resident.add(page)
                small += 1
                cycles += spent
        finally:
            costs = self.costs
            stats = self.stats
            stats.minor_faults += small
            cycles += small * costs.minor_fault_cycles
            if self._is_ech:
                # Charge the ECH growth work done since the last batch.
                rehashed = table.stats.rehashed_entries
                cycles += ((rehashed - self._last_rehashed)
                           * costs.ech_rehash_cycles_per_entry)
                self._last_rehashed = rehashed
            if self._extra_fault_cycles is not None:
                # Shootdown IPIs etc. raised by reclaim during this
                # batch, charged to the faulting core (multi-tenant
                # only).
                cycles += self._extra_fault_cycles()
            stats.fault_cycles += cycles
        return cycles

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
        lru = self._lru_frames
        table = self.page_table
        huge_skipped = []
        try:
            while lru:
                record = lru.popleft()
                page, frame, huge = record
                if huge:
                    huge_skipped.append(record)
                    continue
                if table.lookup(page) is None:
                    continue  # stale: unmapped behind the OS's back
                table.unmap_page(page)
                self.resident.discard(page)
                self.allocator.free_frame(frame)
                self.stats.reclaims += 1
                self.stats.fault_cycles += self.costs.reclaim_cycles
                if self._on_unmap is not None:
                    self._on_unmap(page, False)
                return
            for record in huge_skipped:
                page, frame, _ = record
                if table.lookup(page) is None:
                    continue
                huge_skipped.remove(record)
                table.unmap_page(page)
                self._huge_regions.discard(page >> _REGION_SHIFT)
                self.allocator.free_block(frame)
                self.stats.reclaims += 1
                self.stats.fault_cycles += 4 * self.costs.reclaim_cycles
                if self._on_unmap is not None:
                    self._on_unmap(page, True)
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

    def _fault_huge(self, page: int, site: int) -> Tuple[float, bool]:
        """Try to back ``page``'s 2 MB region with one huge page.

        Returns ``(cycles, mapped)``.  When the region falls back to
        4 KB pages ``mapped`` is False, ``cycles`` holds only the
        compaction work spent first, and :meth:`ensure_mapped` maps
        the page small.
        """
        region = page >> _REGION_SHIFT
        if region in self._fallback_regions:
            self.stats.huge_fallbacks += 1
            return 0, False
        if not self._promotable(region):
            self._fallback_regions.add(region)
            self.stats.huge_fallbacks += 1
            return 0, False

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
                return cycles, False

        base_page = region << _REGION_SHIFT
        try:
            self.page_table.map_page(base_page, first_frame,
                                     HUGE_PAGE_SHIFT)
        except OutOfMemoryError:
            self._retrying(self.page_table.map_page, base_page,
                           first_frame, HUGE_PAGE_SHIFT)
        self._lru_frames.append((base_page, first_frame, True))
        self._huge_regions.add(region)
        self.stats.huge_faults += 1
        return cycles + self.costs.huge_fault_cycles, True
