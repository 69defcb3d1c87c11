"""Counterfactual design: flatten PL3/PL2 instead of PL2/PL1.

The paper merges the *bottom* two radix levels.  A natural question is
whether merging a different pair would do as well; this table merges
PL3 and PL2 (one 2 MB node per PL4 entry, covering 512 GB of VA) and
keeps a conventional PL1 leaf level.

It exists for the ablation benchmark, which shows why the paper's
choice is right: the upper levels were already covered by near-100 %
PWC hit rates (Section V-C), so merging them saves a memory access the
walker almost never performed — while the common-case PL2+PL1 misses
still cost two sequential accesses.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.vm.address import (
    ENTRIES_PER_NODE,
    LEVEL_BITS,
    PAGE_SHIFT,
    PAGE_SIZE,
    PTE_SIZE,
    level_index,
)
from repro.vm.base import MappingError, PageTable, Translation
from repro.vm.frames import FRAMES_PER_BLOCK, FrameAllocator, OutOfMemoryError
from repro.vm.radix import PT_ALLOC_SITE, TableNode

#: The merged PL3/PL2 index: 18 bits selecting a PL1 node.
UPPER_FLAT_BITS = 2 * LEVEL_BITS
UPPER_FLAT_ENTRIES = 1 << UPPER_FLAT_BITS

# Index masks and the PL4 prefix shift, folded for the walk path.
_INDEX_MASK = ENTRIES_PER_NODE - 1
_UPPER_MASK = UPPER_FLAT_ENTRIES - 1
_SHIFT4 = 3 * LEVEL_BITS


class UpperFlattenedPageTable(PageTable):
    """PL4 -> merged PL3/PL2 -> PL1 (the counterfactual flattening)."""

    level_names = ("PL4", "PL3/2", "PL1")

    def __init__(self, allocator: FrameAllocator):
        self._allocator = allocator
        root_frame = allocator.alloc_frame(site=PT_ALLOC_SITE)
        # The root's entries are the 2 MB merged PL3/PL2 nodes, whose
        # entries are 4 KB PL1 nodes.
        self._root = TableNode(allocator.frame_paddr(root_frame))
        self._pl1_count = 0

    def _pl1_for(self, page: int, create: bool) -> Optional[TableNode]:
        entries = self._root.entries
        idx4 = (page >> _SHIFT4) & _INDEX_MASK
        flat = entries.get(idx4)
        if flat is None:
            if not create:
                return None
            first = self._allocator.alloc_huge()
            if first is None:
                raise OutOfMemoryError(
                    "no contiguous block for an upper-flattened node")
            flat = entries[idx4] = TableNode(
                self._allocator.frame_paddr(first))
        upper = (page >> LEVEL_BITS) & _UPPER_MASK
        pl1 = flat.entries.get(upper)
        if pl1 is None and create:
            frame = self._allocator.alloc_frame(site=PT_ALLOC_SITE)
            pl1 = flat.entries[upper] = TableNode(
                self._allocator.frame_paddr(frame))
            self._pl1_count += 1
        return pl1

    def lookup(self, page: int) -> Optional[Translation]:
        pl1 = self._pl1_for(page, create=False)
        if pl1 is None:
            return None
        return pl1.entries.get(level_index(page, 1))

    def map_page(self, page: int, pfn: int,
                 page_shift: int = PAGE_SHIFT) -> None:
        if page_shift != PAGE_SHIFT:
            raise MappingError("4 KB pages only")
        pl1 = self._pl1_for(page, create=True)
        idx1 = level_index(page, 1)
        if idx1 in pl1.entries:
            raise MappingError(f"page {page:#x} already mapped")
        pl1.entries[idx1] = tuple.__new__(Translation,
                                          (pfn, PAGE_SHIFT))

    def unmap_page(self, page: int) -> None:
        pl1 = self._pl1_for(page, create=False)
        idx1 = level_index(page, 1)
        if pl1 is None or idx1 not in pl1.entries:
            raise MappingError(f"page {page:#x} not mapped")
        del pl1.entries[idx1]

    def walk_info_decorated(self, page: int):
        """The flat plan of PL4, merged PL3/2 and PL1 reads, from one
        descent.  PWC prefixes are ``page >> 27``, ``page >> 9`` and
        ``page``: the merged level consumes 18 index bits."""
        node = self._root
        prefix = page >> _SHIFT4
        idx4 = prefix & _INDEX_MASK
        step4 = (node.base_paddr + idx4 * PTE_SIZE, prefix)
        flat = node.entries.get(idx4)
        if flat is None:
            return None
        prefix = page >> LEVEL_BITS
        upper = prefix & _UPPER_MASK
        step32 = (flat.base_paddr + upper * PTE_SIZE, prefix)
        pl1 = flat.entries.get(upper)
        if pl1 is None:
            return None
        index = page & _INDEX_MASK
        leaf = pl1.entries.get(index)
        if leaf is None:
            return None
        return ((step4, step32, (pl1.base_paddr + index * PTE_SIZE, page)),
                None, leaf)

    def occupancy(self) -> Dict[str, float]:
        flat_nodes = self._root.entries
        result = {"PL4": len(flat_nodes) / ENTRIES_PER_NODE}
        if flat_nodes:
            used = sum(len(f.entries) for f in flat_nodes.values())
            result["PL3/2"] = used / (len(flat_nodes) * UPPER_FLAT_ENTRIES)
        if self._pl1_count:
            used = sum(
                len(pl1.entries)
                for flat in flat_nodes.values()
                for pl1 in flat.entries.values()
            )
            result["PL1"] = used / (self._pl1_count * ENTRIES_PER_NODE)
        return result

    def table_bytes(self) -> int:
        flat_bytes = (len(self._root.entries) * FRAMES_PER_BLOCK
                      * PAGE_SIZE)
        return PAGE_SIZE + flat_bytes + self._pl1_count * PAGE_SIZE
