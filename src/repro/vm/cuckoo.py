"""Elastic cuckoo hash page table (ECH baseline, Skarlatos et al.).

The state-of-the-art hash-based page table the paper compares against
(mechanism (2) in Section VI).  Translations live in ``d`` ways, each a
flat array of 16-byte entries in physical memory; a lookup probes one
slot in every way *in parallel*, so walk latency is the max — not the
sum — of the probe latencies.  The cost is probe traffic: every walk
moves ``d`` cache lines, which is exactly the bandwidth pressure that
erodes ECH's advantage in the 8-core experiments (Fig. 14).

Elasticity: when the load factor crosses a threshold the table grows by
a configurable multiple and entries are rehashed.  The simulator charges
the OS-visible cost of rehashing at fault time (see
:mod:`repro.vm.os_model`), while this module keeps the functional
mechanics — displacement chains, bounded kicks, resize — faithful.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.vm.address import PAGE_SHIFT, PAGE_SIZE
from repro.vm.base import MappingError, PageTable, Translation
from repro.vm.frames import FrameAllocator
from repro.vm.radix import PT_ALLOC_SITE

ECH_ENTRY_BYTES = 16  # VPN tag + PTE, as in the ECH paper


def _splitmix64(value: int) -> int:
    """Deterministic 64-bit mixer used as the per-way hash function."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


@dataclass(slots=True)
class CuckooStats:
    """Behavioural counters for the hash table."""

    inserts: int = 0
    kicks: int = 0
    resizes: int = 0
    rehashed_entries: int = 0


class _Way:
    """One hash way: a contiguous array of entries in physical memory."""

    __slots__ = ("salt", "size", "base_paddr", "slots")

    def __init__(self, salt: int, size: int, base_paddr: int):
        self.salt = salt
        self.size = size
        self.base_paddr = base_paddr
        # slot index -> (vpn, Translation)
        self.slots: Dict[int, tuple] = {}

    def index_of(self, page: int) -> int:
        return _splitmix64(page ^ self.salt) % self.size


class ElasticCuckooPageTable(PageTable):
    """d-ary elastic cuckoo hash table over 4 KB mappings.

    Args:
        allocator: physical memory source for the way arrays.
        ways: number of hash ways (d).  The ``ech`` mechanism builds
            the default of 2, so every ECH result comes from 2 ways;
            3 ways read lower everywhere, and ECH's inverted trend
            across core counts stays (ROADMAP Open item 5).
        initial_entries: starting slots per way.
        resize_threshold: grow when occupied/capacity exceeds this.
        growth_factor: multiplicative resize step (k in the ECH paper).
        max_kicks: displacement-chain bound before forcing a resize.
        seed: RNG seed for way salts and kick choices.
    """

    def __init__(self, allocator: FrameAllocator, ways: int = 2,
                 initial_entries: int = 1 << 14,
                 resize_threshold: float = 0.8,
                 growth_factor: float = 2.0,
                 max_kicks: int = 32,
                 seed: int = 0x5EED):
        if ways < 2:
            raise ValueError("cuckoo hashing needs at least 2 ways")
        self._allocator = allocator
        self._rng = random.Random(seed)
        self._ways_count = ways
        # One walk level per way: resizes keep the number of ways.
        self.level_names = tuple(f"ECH-way{i}" for i in range(ways))
        self._resize_threshold = resize_threshold
        self._growth_factor = growth_factor
        self._max_kicks = max_kicks
        self.stats = CuckooStats()
        self._table_bytes = 0
        self._ways: List[_Way] = [
            self._new_way(initial_entries) for _ in range(ways)
        ]
        self._mapped_pages = 0

    def _new_way(self, size: int) -> _Way:
        num_bytes = size * ECH_ENTRY_BYTES
        num_frames = -(-num_bytes // PAGE_SIZE)
        first = self._allocator.alloc_frame(site=PT_ALLOC_SITE)
        for _ in range(num_frames - 1):
            self._allocator.alloc_frame(site=PT_ALLOC_SITE)
        self._table_bytes += num_frames * PAGE_SIZE
        return _Way(self._rng.getrandbits(64), size,
                    self._allocator.frame_paddr(first))

    # -- functional operations ------------------------------------------------

    @property
    def load_factor(self) -> float:
        # Every mapped page occupies exactly one slot, and all ways
        # share one size, so no per-way sums are needed.
        capacity = self._ways_count * self._ways[0].size
        return self._mapped_pages / capacity if capacity else 0.0

    def lookup(self, page: int) -> Optional[Translation]:
        # _splitmix64 inlined.  A TLB miss takes its translation from
        # the walk plan; this runs on the fault path
        # (``ensure_translated``) and in reclaim.
        for way in self._ways:
            value = ((page ^ way.salt) + 0x9E3779B97F4A7C15) \
                & 0xFFFFFFFFFFFFFFFF
            value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) \
                & 0xFFFFFFFFFFFFFFFF
            value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) \
                & 0xFFFFFFFFFFFFFFFF
            entry = way.slots.get((value ^ (value >> 31)) % way.size)
            if entry is not None and entry[0] == page:
                return entry[1]
        return None

    def map_page(self, page: int, pfn: int,
                 page_shift: int = PAGE_SHIFT) -> None:
        if page_shift != PAGE_SHIFT:
            raise MappingError(
                "this ECH instance holds the 4 KB table; huge pages would"
                " live in a separate table per the ECH design"
            )
        # One probe pass over every way both rejects a double map and
        # finds the first free candidate slot (the first pass _insert
        # would make); only a full set of candidates goes on to kick.
        free_way = free_index = None
        for way in self._ways:
            index = _splitmix64(page ^ way.salt) % way.size
            entry = way.slots.get(index)
            if entry is None:
                if free_way is None:
                    free_way, free_index = way, index
            elif entry[0] == page:
                raise MappingError(f"page {page:#x} already mapped")
        self.stats.inserts += 1
        translation = tuple.__new__(Translation, (pfn, PAGE_SHIFT))
        if free_way is not None:
            free_way.slots[free_index] = (page, translation)
        else:
            self._insert(page, translation)
        self._mapped_pages += 1
        if self.load_factor > self._resize_threshold:
            self._resize()

    def _insert(self, page: int, translation: Translation) -> None:
        item = (page, translation)
        for _ in range(self._max_kicks):
            for way in self._ways:
                index = way.index_of(item[0])
                if index not in way.slots:
                    way.slots[index] = item
                    return
            # All candidate slots occupied: displace a random way's entry.
            way = self._ways[self._rng.randrange(self._ways_count)]
            index = way.index_of(item[0])
            item, way.slots[index] = way.slots[index], item
            self.stats.kicks += 1
        # Displacement chain too long -> grow and retry with the orphan.
        self._resize()
        self._insert(item[0], item[1])

    def _resize(self) -> None:
        self.stats.resizes += 1
        entries = [
            entry for way in self._ways for entry in way.slots.values()
        ]
        self.stats.rehashed_entries += len(entries)
        new_size = int(self._ways[0].size * self._growth_factor)
        self._ways = [
            self._new_way(new_size) for _ in range(self._ways_count)
        ]
        for page, translation in entries:
            self._insert(page, translation)

    def unmap_page(self, page: int) -> None:
        for way in self._ways:
            index = way.index_of(page)
            entry = way.slots.get(index)
            if entry is not None and entry[0] == page:
                del way.slots[index]
                self._mapped_pages -= 1
                return
        raise MappingError(f"page {page:#x} not mapped")

    # -- walker-facing structure ----------------------------------------------

    def walk_info_decorated(self, page: int):
        """A parallel plan: a probe of every way at once (nests
        disabled).  The probes also find the translation, so one pass
        yields both."""
        translation = None
        probes = []
        for way in self._ways:
            index = _splitmix64(page ^ way.salt) % way.size
            probes.append(way.base_paddr + index * ECH_ENTRY_BYTES)
            entry = way.slots.get(index)
            if entry is not None and entry[0] == page:
                translation = entry[1]
        if translation is None:
            return None
        return None, tuple(probes), translation

    def occupancy(self) -> Dict[str, float]:
        return {
            level: len(way.slots) / way.size
            for way, level in zip(self._ways, self.level_names)
        }

    def table_bytes(self) -> int:
        return self._table_bytes
