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

from typing import Dict, List, Optional

from repro.vm.address import (
    ENTRIES_PER_NODE,
    LEVEL_BITS,
    PAGE_SHIFT,
    PAGE_SIZE,
    PTE_SIZE,
    level_index,
)
from repro.vm.base import MappingError, PageTable, Translation, WalkStage
from repro.vm.frames import FRAMES_PER_BLOCK, FrameAllocator, OutOfMemoryError
from repro.vm.radix import PT_ALLOC_SITE

#: The merged PL3/PL2 index: 18 bits selecting a PL1 node.
UPPER_FLAT_BITS = 2 * LEVEL_BITS
UPPER_FLAT_ENTRIES = 1 << UPPER_FLAT_BITS


class _Pl1Node:
    __slots__ = ("base_paddr", "entries")

    def __init__(self, base_paddr: int):
        self.base_paddr = base_paddr
        self.entries: Dict[int, Translation] = {}

    def pte_paddr(self, index: int) -> int:
        return self.base_paddr + index * PTE_SIZE


class _UpperFlatNode:
    """One 2 MB node holding the merged PL3/PL2 entries."""

    __slots__ = ("base_paddr", "entries")

    def __init__(self, base_paddr: int):
        self.base_paddr = base_paddr
        self.entries: Dict[int, _Pl1Node] = {}

    def pte_paddr(self, index: int) -> int:
        return self.base_paddr + index * PTE_SIZE


class UpperFlattenedPageTable(PageTable):
    """PL4 -> merged PL3/PL2 -> PL1 (the counterfactual flattening)."""

    level_names = ("PL4", "PL3/2", "PL1")

    def __init__(self, allocator: FrameAllocator):
        self._allocator = allocator
        root_frame = allocator.alloc_frame(site=PT_ALLOC_SITE)
        self._root_paddr = allocator.frame_paddr(root_frame)
        self._flat_nodes: Dict[int, _UpperFlatNode] = {}
        self._pl1_count = 0
        self._mapped = 0

    def _upper_index(self, page: int) -> int:
        return (page >> LEVEL_BITS) & (UPPER_FLAT_ENTRIES - 1)

    def _pl1_for(self, page: int, create: bool) -> Optional[_Pl1Node]:
        idx4 = level_index(page, 4)
        flat = self._flat_nodes.get(idx4)
        if flat is None:
            if not create:
                return None
            first = self._allocator.alloc_huge()
            if first is None:
                raise OutOfMemoryError(
                    "no contiguous block for an upper-flattened node")
            flat = _UpperFlatNode(self._allocator.frame_paddr(first))
            self._flat_nodes[idx4] = flat
        upper = self._upper_index(page)
        pl1 = flat.entries.get(upper)
        if pl1 is None and create:
            frame = self._allocator.alloc_frame(site=PT_ALLOC_SITE)
            pl1 = _Pl1Node(self._allocator.frame_paddr(frame))
            flat.entries[upper] = pl1
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
        self._mapped += 1

    def unmap_page(self, page: int) -> None:
        pl1 = self._pl1_for(page, create=False)
        idx1 = level_index(page, 1)
        if pl1 is None or idx1 not in pl1.entries:
            raise MappingError(f"page {page:#x} not mapped")
        del pl1.entries[idx1]
        self._mapped -= 1

    def walk_stages(self, page: int) -> List[List[WalkStage]]:
        idx4 = level_index(page, 4)
        flat = self._flat_nodes.get(idx4)
        upper = self._upper_index(page)
        if flat is None or upper not in flat.entries:
            raise MappingError(f"walk of unmapped page {page:#x}")
        pl1 = flat.entries[upper]
        idx1 = level_index(page, 1)
        if idx1 not in pl1.entries:
            raise MappingError(f"walk of unmapped page {page:#x}")
        return [
            [WalkStage("PL4", self._root_paddr + idx4 * PTE_SIZE,
                       ("PL4", page >> (3 * LEVEL_BITS)))],
            [WalkStage("PL3/2", flat.pte_paddr(upper),
                       ("PL3/2", page >> LEVEL_BITS))],
            [WalkStage("PL1", pl1.pte_paddr(idx1), ("PL1", page))],
        ]

    def occupancy(self) -> Dict[str, float]:
        result = {"PL4": len(self._flat_nodes) / ENTRIES_PER_NODE}
        if self._flat_nodes:
            used = sum(len(f.entries) for f in self._flat_nodes.values())
            result["PL3/2"] = used / (len(self._flat_nodes)
                                      * UPPER_FLAT_ENTRIES)
        if self._pl1_count:
            used = sum(
                len(pl1.entries)
                for flat in self._flat_nodes.values()
                for pl1 in flat.entries.values()
            )
            result["PL1"] = used / (self._pl1_count * ENTRIES_PER_NODE)
        return result

    def table_bytes(self) -> int:
        flat_bytes = len(self._flat_nodes) * FRAMES_PER_BLOCK * PAGE_SIZE
        return PAGE_SIZE + flat_bytes + self._pl1_count * PAGE_SIZE

    @property
    def mapped_pages(self) -> int:
        return self._mapped
