#!/usr/bin/env python
"""Extending the library: plug in your own page-table design.

Implements a *two-level* flattened table — PL4, then one giant node
merging PL3/PL2/PL1 (27 index bits, a 1 GB node) — registers it as a
mechanism, and races it against Radix and NDPage.  This is the paper's
"future work" direction taken one step further: flattening more levels
trades page-table memory for even shorter walks.

Run:  python examples/custom_page_table.py
"""

from typing import Dict, Optional

from repro import ndp_config
from repro.analysis.tables import format_table
from repro.core.mechanisms import MECHANISMS, MechanismSpec
from repro.sim.runner import run_mechanisms
from repro.vm.address import LEVEL_BITS, PAGE_SHIFT, PTE_SIZE, level_index
from repro.vm.base import MappingError, PageTable, Translation
from repro.vm.frames import FRAMES_PER_BLOCK
from repro.vm.os_model import PagingPolicy
from repro.vm.radix import PT_ALLOC_SITE

MEGA_BITS = 3 * LEVEL_BITS          # PL3+PL2+PL1 merged: 27 bits
MEGA_ENTRIES = 1 << MEGA_BITS       # 2^27 entries -> 1 GB per node


class MegaFlattenedTable(PageTable):
    """PL4 -> merged PL3/PL2/PL1. Two accesses per walk, 1 GB nodes."""

    level_names = ("PL4", "PL3/2/1")

    def __init__(self, allocator):
        self._allocator = allocator
        root_frame = allocator.alloc_frame(site=PT_ALLOC_SITE)
        self._root_paddr = allocator.frame_paddr(root_frame)
        self._nodes: Dict[int, tuple] = {}  # PL4 index -> (base, entries)

    def _node_for(self, page: int, create: bool):
        idx4 = level_index(page, 4)
        node = self._nodes.get(idx4)
        if node is None and create:
            # A 1 GB node = 512 contiguous 2 MB blocks.  Real systems
            # would reserve this at boot; the example allocates eagerly.
            first = None
            for i in range(512):
                block = self._allocator.alloc_huge()
                if block is None:
                    raise MemoryError("no contiguity for a 1 GB node")
                if first is None:
                    first = block
            node = (self._allocator.frame_paddr(first), {})
            self._nodes[idx4] = node
        return node

    def lookup(self, page: int) -> Optional[Translation]:
        node = self._nodes.get(level_index(page, 4))
        if node is None:
            return None
        return node[1].get(page & (MEGA_ENTRIES - 1))

    def map_page(self, page: int, pfn: int,
                 page_shift: int = PAGE_SHIFT) -> None:
        if page_shift != PAGE_SHIFT:
            raise MappingError("4 KB pages only")
        base, entries = self._node_for(page, create=True)
        index = page & (MEGA_ENTRIES - 1)
        if index in entries:
            raise MappingError(f"page {page:#x} already mapped")
        entries[index] = Translation(pfn, PAGE_SHIFT)

    def unmap_page(self, page: int) -> None:
        node = self._nodes.get(level_index(page, 4))
        index = page & (MEGA_ENTRIES - 1)
        if node is None or index not in node[1]:
            raise MappingError(f"page {page:#x} not mapped")
        del node[1][index]

    def walk_info_decorated(self, page: int):
        # The walk plan the walker times: one (PTE address, PWC prefix)
        # step per sequential read, in ``level_names`` order.  The
        # walker pairs each step with its level's PWC by position and
        # applies the mechanism's L1-bypass flag to every read.
        idx4 = level_index(page, 4)
        node = self._nodes.get(idx4)
        index = page & (MEGA_ENTRIES - 1)
        if node is None or index not in node[1]:
            return None
        flat = ((self._root_paddr + idx4 * PTE_SIZE, idx4),
                (node[0] + index * PTE_SIZE, page))
        return flat, None, node[1][index]

    def occupancy(self) -> Dict[str, float]:
        if not self._nodes:
            return {"PL4": 0.0}
        used = sum(len(entries) for _, entries in self._nodes.values())
        return {
            "PL4": len(self._nodes) / 512,
            "PL3/2/1": used / (len(self._nodes) * MEGA_ENTRIES),
        }

    def table_bytes(self) -> int:
        per_node = 512 * FRAMES_PER_BLOCK * 4096
        return 4096 + len(self._nodes) * per_node


def main():
    MECHANISMS["mega"] = MechanismSpec(
        key="mega", label="Mega-flattened (2-level, this example)",
        table=MegaFlattenedTable, bypass_ptes=True,
        pwc_levels=("PL4",), paging_policy=PagingPolicy.SMALL)

    config = ndp_config(workload="rnd", num_cores=4, refs_per_core=6_000)
    results = run_mechanisms(config, ["radix", "ndpage", "mega"])
    baseline = results["radix"]

    rows = [
        [name, r.speedup_over(baseline), r.ptw_latency_mean,
         r.pte_memory_accesses / max(1, r.walks),
         r.table_bytes / 1024 ** 2]
        for name, r in results.items()
    ]
    print(format_table(
        ["mechanism", "speedup", "PTW (cy)", "PTE accesses/walk",
         "table MB"],
        rows, title="Custom 2-level table vs Radix and NDPage "
                    "(GUPS, 4-core NDP)"))
    print()
    print("The mega-flattened table walks in ~1 memory access but burns"
          " a 1 GB physical node per PL4 slot — the flexibility/space"
          " trade-off the paper's 2 MB flattened node deliberately"
          " stops short of.")


if __name__ == "__main__":
    main()
