"""Flattened L2/L1 page table — NDPage's second mechanism (Section V-B).

The bottom two radix levels are merged: each PL3 entry points at a
single 2 MB node holding 2^18 PTEs, indexed by the concatenated 18 bits
that PL2 and PL1 would have consumed separately (Fig. 9).  A walk
therefore takes three sequential accesses instead of four while mappings
stay 4 KB — the property that saves Huge Page's blow-ups in the 8-core
evaluation (Section VII-B).

Flattened nodes are physically contiguous 2 MB allocations; the paper
notes the extra space is negligible next to the data footprint, and the
table allocates nodes lazily exactly like the radix tree.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.vm.address import (
    ENTRIES_PER_NODE,
    FLAT_ENTRIES,
    LEVEL_BITS,
    PAGE_SHIFT,
    PAGE_SIZE,
    PTE_SIZE,
    flat_index,
)
from repro.vm.base import MappingError, PageTable, Translation
from repro.vm.frames import FRAMES_PER_BLOCK, FrameAllocator, OutOfMemoryError
from repro.vm.radix import PT_ALLOC_SITE, TableNode

# Index masks and PL4/PL3 prefix shifts, folded for the walk path.
_INDEX_MASK = ENTRIES_PER_NODE - 1
_FLAT_MASK = FLAT_ENTRIES - 1
_SHIFT4 = 3 * LEVEL_BITS
_SHIFT3 = 2 * LEVEL_BITS


class FlattenedPageTable(PageTable):
    """PL4 -> PL3 -> flattened PL2/1 page table (4 KB pages only)."""

    level_names = ("PL4", "PL3", "PL2/1")

    def __init__(self, allocator: FrameAllocator):
        self._allocator = allocator
        self._root = self._new_interior()
        self._interior_nodes = 1
        # Flattened nodes by VPN prefix (``page >> 18``), filled where
        # one is built; leaves are never freed, so it never goes stale.
        self._leaves: Dict[int, TableNode] = {}

    def _new_interior(self) -> TableNode:
        frame = self._allocator.alloc_frame(site=PT_ALLOC_SITE)
        return TableNode(self._allocator.frame_paddr(frame))

    def _new_leaf(self, page: int) -> TableNode:
        """Build (and index) the flattened node for ``page``, creating
        its PL3 node first when missing."""
        entries = self._root.entries
        index = (page >> _SHIFT4) & _INDEX_MASK
        child = entries.get(index)
        if child is None:
            child = entries[index] = self._new_interior()
            self._interior_nodes += 1
        first_frame = self._allocator.alloc_huge()
        if first_frame is None:
            raise OutOfMemoryError(
                "no contiguous 2 MB block for a flattened page-table node"
            )
        flat = child.entries[(page >> _SHIFT3) & _INDEX_MASK] = TableNode(
            self._allocator.frame_paddr(first_frame))
        self._leaves[page >> _SHIFT3] = flat
        return flat

    # -- PageTable interface --------------------------------------------------

    def lookup(self, page: int) -> Optional[Translation]:
        # Inlined descent.  A TLB miss takes its translation from the
        # walk plan; this runs on the fault path
        # (``ensure_translated``) and in reclaim.
        mask = ENTRIES_PER_NODE - 1
        child = self._root.entries.get((page >> (3 * LEVEL_BITS)) & mask)
        if child is None:
            return None
        flat = child.entries.get((page >> (2 * LEVEL_BITS)) & mask)
        if flat is None:
            return None
        return flat.entries.get(page & (FLAT_ENTRIES - 1))

    def map_page(self, page: int, pfn: int,
                 page_shift: int = PAGE_SHIFT) -> None:
        if page_shift != PAGE_SHIFT:
            raise MappingError(
                "flattened table keeps 4 KB flexibility; 2 MB mappings "
                "are intentionally unsupported"
            )
        # One probe of the leaf index on every demand-paging fault, a
        # descent only to build a missing flattened node.
        flat = self._leaves.get(page >> _SHIFT3)
        if flat is None:
            flat = self._new_leaf(page)
        entries = flat.entries
        index = page & _FLAT_MASK
        if index in entries:
            raise MappingError(f"page {page:#x} already mapped")
        entries[index] = tuple.__new__(Translation, (pfn, PAGE_SHIFT))

    def unmap_page(self, page: int) -> None:
        flat = self._leaves.get(page >> _SHIFT3)
        if flat is None or flat_index(page) not in flat.entries:
            raise MappingError(f"page {page:#x} not mapped")
        del flat.entries[flat_index(page)]

    def walk_info_decorated(self, page: int):
        """The flat plan of PL4, PL3 and flattened PL2/1 reads, from
        one descent.  PWC prefixes are ``page >> 27``, ``page >> 18``
        and ``page``: the flattened level consumes 18 index bits."""
        node = self._root
        prefix = page >> _SHIFT4
        idx4 = prefix & _INDEX_MASK
        step4 = (node.base_paddr + idx4 * PTE_SIZE, prefix)
        child = node.entries.get(idx4)
        if child is None:
            return None
        prefix = page >> _SHIFT3
        idx3 = prefix & _INDEX_MASK
        step3 = (child.base_paddr + idx3 * PTE_SIZE, prefix)
        flat = child.entries.get(idx3)
        if flat is None:
            return None
        index = page & _FLAT_MASK
        leaf = flat.entries.get(index)
        if leaf is None:
            return None
        return ((step4, step3, (flat.base_paddr + index * PTE_SIZE, page)),
                None, leaf)

    def occupancy(self) -> Dict[str, float]:
        result: Dict[str, float] = {}
        root_used = len(self._root.entries)
        result["PL4"] = root_used / ENTRIES_PER_NODE
        pl3_nodes = [
            child for child in self._root.entries.values()
        ]
        if pl3_nodes:
            used = sum(len(n.entries) for n in pl3_nodes)
            result["PL3"] = used / (len(pl3_nodes) * ENTRIES_PER_NODE)
        if self._leaves:
            used = sum(len(n.entries) for n in self._leaves.values())
            result["PL2/1"] = used / (len(self._leaves) * FLAT_ENTRIES)
        return result

    def table_bytes(self) -> int:
        flat_bytes = len(self._leaves) * FRAMES_PER_BLOCK * PAGE_SIZE
        return self._interior_nodes * PAGE_SIZE + flat_bytes
