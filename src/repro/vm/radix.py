"""Four-level x86-64 radix page table (the paper's *Radix* baseline).

Supports mixed page sizes: 4 KB leaves at PL1 and 2 MB leaves at PL2,
which is how the *Huge Page* mechanism (transparent huge pages) is
expressed — same tree, shorter walks for 2 MB-mapped regions.

Page-table nodes are real physical pages drawn from the
:class:`~repro.vm.frames.FrameAllocator`, so PTE physical addresses are
honest: they land in DRAM banks and cache sets exactly like the paper's
"metadata" traffic.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.vm.address import (
    ENTRIES_PER_NODE,
    LEVEL_BITS,
    PAGE_SHIFT,
    HUGE_PAGE_SHIFT,
    PAGE_SIZE,
    PTE_SIZE,
    level_index,
)
from repro.vm.base import MappingError, PageTable, Translation
from repro.vm.frames import FrameAllocator

#: Allocation site used for page-table pages, distinct from any core.
PT_ALLOC_SITE = 1 << 20

_LEVEL_NAMES = {4: "PL4", 3: "PL3", 2: "PL2", 1: "PL1"}

# Per-level index mask and PL4/PL3 prefix shifts, folded for the walk
# path.
_INDEX_MASK = ENTRIES_PER_NODE - 1
_SHIFT4 = 3 * LEVEL_BITS
_SHIFT3 = 2 * LEVEL_BITS


class TableNode:
    """One page-table node: its physical base address and its entries
    (index -> child node, or a leaf Translation).  The radix,
    flattened and upper-flattened tables all build their trees of it;
    a node's size is its table's business."""

    __slots__ = ("base_paddr", "entries")

    def __init__(self, base_paddr: int):
        self.base_paddr = base_paddr
        self.entries: Dict[int, object] = {}


class RadixPageTable(PageTable):
    """Mixed 4 KB / 2 MB four-level radix tree."""

    level_names = ("PL4", "PL3", "PL2", "PL1")

    def __init__(self, allocator: FrameAllocator):
        self._allocator = allocator
        self._nodes_by_level: Dict[int, List[TableNode]] = {
            4: [], 3: [], 2: [], 1: []}
        self._root = self._new_node(4)
        # PL1 nodes by VPN prefix (``page >> 9``), filled where one is
        # built.  Never stale: leaves are never freed, and a PL2 slot
        # that holds one never takes a 2 MB leaf.
        self._leaves: Dict[int, TableNode] = {}
        self.huge_mappings = 0

    # -- construction helpers -------------------------------------------------

    def _new_node(self, level: int) -> TableNode:
        frame = self._allocator.alloc_frame(site=PT_ALLOC_SITE)
        node = TableNode(self._allocator.frame_paddr(frame))
        self._nodes_by_level[level].append(node)
        return node

    def _pl2_node(self, page: int, create: bool) -> Optional[TableNode]:
        """The PL2 node covering ``page`` (built, PL3 node first, when
        missing and ``create``), or None."""
        node = self._root
        for shift, level in ((_SHIFT4, 3), (_SHIFT3, 2)):
            entries = node.entries
            index = (page >> shift) & _INDEX_MASK
            node = entries.get(index)
            if node is None:
                if not create:
                    return None
                node = entries[index] = self._new_node(level)
        return node

    def _new_leaf(self, page: int) -> TableNode:
        """Build (and index) the PL1 node for ``page``, creating any
        missing node above it root first (the descent unrolled: at
        full-scale footprints most first touches build a leaf)."""
        entries = self._root.entries
        index = (page >> _SHIFT4) & _INDEX_MASK
        node = entries.get(index)
        if node is None:
            node = entries[index] = self._new_node(3)
        entries = node.entries
        index = (page >> _SHIFT3) & _INDEX_MASK
        node = entries.get(index)
        if node is None:
            node = entries[index] = self._new_node(2)
        entries = node.entries
        index = (page >> LEVEL_BITS) & _INDEX_MASK
        if index in entries:  # only a 2 MB leaf goes unindexed
            raise MappingError(f"page {page:#x} lies inside a 2 MB mapping")
        leaf = entries[index] = self._new_node(1)
        self._leaves[page >> LEVEL_BITS] = leaf
        return leaf

    # -- PageTable interface --------------------------------------------------

    def lookup(self, page: int) -> Optional[Translation]:
        # Unrolled descent with the level_index shifts inlined.  A TLB
        # miss takes its translation from the walk plan; this runs on
        # the fault path (``ensure_translated``) and in reclaim.
        mask = ENTRIES_PER_NODE - 1
        node = self._root
        for shift in (3 * LEVEL_BITS, 2 * LEVEL_BITS, LEVEL_BITS):
            entry = node.entries.get((page >> shift) & mask)
            if entry is None:
                return None
            if type(entry) is Translation:  # 2 MB leaf at PL2
                return entry
            node = entry
        leaf = node.entries.get(page & mask)
        return leaf if type(leaf) is Translation else None

    def map_page(self, page: int, pfn: int,
                 page_shift: int = PAGE_SHIFT) -> None:
        if page_shift != PAGE_SHIFT:
            if page_shift != HUGE_PAGE_SHIFT:
                raise MappingError(f"unsupported page_shift {page_shift}")
            self._map_huge(page, pfn)
            return
        # A 4 KB leaf: one probe of the leaf index on every
        # demand-paging fault, a descent only to build a missing leaf.
        leaf = self._leaves.get(page >> LEVEL_BITS)
        if leaf is None:
            leaf = self._new_leaf(page)
        entries = leaf.entries
        index = page & _INDEX_MASK
        if index in entries:
            raise MappingError(f"page {page:#x} already mapped")
        entries[index] = tuple.__new__(Translation, (pfn, PAGE_SHIFT))

    def _map_huge(self, page: int, pfn: int) -> None:
        if page % ENTRIES_PER_NODE != 0:
            raise MappingError("2 MB mapping must be 512-page aligned")
        if (pfn << PAGE_SHIFT) % (1 << HUGE_PAGE_SHIFT):
            raise MappingError("2 MB mapping needs a 2 MB-aligned frame")
        node = self._pl2_node(page, create=True)
        idx2 = level_index(page, 2)
        if idx2 in node.entries:
            raise MappingError(f"PL2 slot for page {page:#x} already in use")
        node.entries[idx2] = tuple.__new__(Translation, (
            pfn >> (HUGE_PAGE_SHIFT - PAGE_SHIFT), HUGE_PAGE_SHIFT))
        self.huge_mappings += 1

    def unmap_page(self, page: int) -> None:
        node = self._pl2_node(page, create=False)
        if node is None:
            raise MappingError(f"page {page:#x} not mapped")
        idx2 = level_index(page, 2)
        entry = node.entries.get(idx2)
        if isinstance(entry, Translation):
            del node.entries[idx2]
            self.huge_mappings -= 1
            return
        if entry is None or level_index(page, 1) not in entry.entries:
            raise MappingError(f"page {page:#x} not mapped")
        del entry.entries[level_index(page, 1)]

    def walk_info_decorated(self, page: int):
        """The flat plan of PL4, PL3, PL2 and (below a 4 KB leaf's
        PL2 entry) PL1 reads, from one unrolled descent.  Each level's
        PWC prefix is the VPN without the index bits of the levels
        below it: ``page >> 27``, ``>> 18``, ``>> 9`` and ``page``."""
        node = self._root
        prefix = page >> _SHIFT4
        index = prefix & _INDEX_MASK
        step4 = (node.base_paddr + index * PTE_SIZE, prefix)
        node = node.entries.get(index)
        if node is None:
            return None

        prefix = page >> _SHIFT3
        index = prefix & _INDEX_MASK
        step3 = (node.base_paddr + index * PTE_SIZE, prefix)
        node = node.entries.get(index)
        if node is None:
            return None

        prefix = page >> LEVEL_BITS
        index = prefix & _INDEX_MASK
        step2 = (node.base_paddr + index * PTE_SIZE, prefix)
        entry = node.entries.get(index)
        if entry is None:
            return None
        if type(entry) is Translation:  # 2 MB leaf: 3-step walk
            return (step4, step3, step2), None, entry

        index = page & _INDEX_MASK
        leaf = entry.entries.get(index)
        if leaf is None:
            return None
        return ((step4, step3, step2,
                 (entry.base_paddr + index * PTE_SIZE, page)),
                None, leaf)

    def occupancy(self) -> Dict[str, float]:
        result = {}
        for level, nodes in self._nodes_by_level.items():
            if not nodes:
                continue
            used = sum(len(n.entries) for n in nodes)
            result[_LEVEL_NAMES[level]] = used / (
                len(nodes) * ENTRIES_PER_NODE)
        return result

    def table_bytes(self) -> int:
        return sum(len(v) for v in self._nodes_by_level.values()) * PAGE_SIZE
