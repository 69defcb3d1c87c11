"""x86-64 address manipulation helpers.

All page-table designs in this package share the x86-64 virtual address
layout (Fig. 2 of the paper): a 48-bit canonical virtual address whose
upper 36 bits are split into four 9-bit radix indices (PL4..PL1) above a
12-bit page offset.  The flattened L2/L1 table of NDPage (Fig. 9) instead
consumes the bottom two indices as one 18-bit index.

Everything here is a plain function on integers; these run on the
simulator's hot path, so no classes are introduced.
"""

from __future__ import annotations

# Base page geometry -------------------------------------------------------
PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT            # 4 KB
HUGE_PAGE_SHIFT = 21
HUGE_PAGE_SIZE = 1 << HUGE_PAGE_SHIFT  # 2 MB

# Cache geometry (Table I: 64 B lines everywhere) ---------------------------
LINE_SHIFT = 6
LINE_SIZE = 1 << LINE_SHIFT

# Radix page-table geometry -------------------------------------------------
LEVEL_BITS = 9
ENTRIES_PER_NODE = 1 << LEVEL_BITS     # 512 entries per 4 KB node
PTE_SIZE = 8                           # 64-bit entries
VA_BITS = 48
NUM_LEVELS = 4

# Flattened L2/L1 geometry (NDPage, Section V-B) ----------------------------
FLAT_LEVEL_BITS = 2 * LEVEL_BITS       # 18 bits
FLAT_ENTRIES = 1 << FLAT_LEVEL_BITS    # 262,144 entries

_LEVEL_MASK = ENTRIES_PER_NODE - 1
_FLAT_MASK = FLAT_ENTRIES - 1
VA_MASK = (1 << VA_BITS) - 1

# ASID tagging (multi-process) -----------------------------------------------
# VPNs occupy VA_BITS - PAGE_SHIFT = 36 bits, so an address-space id
# packed at bit 40 (a few bits of headroom) turns a (asid, vpn) pair
# into a single int that drops into the existing TLB/PWC integer keys.
# ASID 0 tags to 0, keeping single-address-space keys — and the
# allocation-free fast path built on them — bit-identical.
ASID_SHIFT = VA_BITS - PAGE_SHIFT + 4   # 40
ASID_KEY_MASK = (1 << ASID_SHIFT) - 1   # strips the tag back off


def asid_tag(asid: int) -> int:
    """Key-space tag for address space ``asid`` (0 stays 0)."""
    if asid < 0:
        raise ValueError("asid must be non-negative")
    return asid << ASID_SHIFT


# NUMA node tagging (physical side) -----------------------------------------
# Frame numbers stay below 2**28 for any per-node pool up to 1 TiB, so a
# node id packed at frame bit 28 (physical-address bit 40) turns a
# (node, frame) pair into a single int that flows through the existing
# page tables, caches and DRAM decode unchanged — the physical mirror of
# the ASID trick on the virtual side.  Node 0 tags to 0, keeping every
# single-node frame number and physical address bit-identical.
NODE_FRAME_SHIFT = 28
NODE_PADDR_SHIFT = NODE_FRAME_SHIFT + PAGE_SHIFT  # 40
NODE_FRAME_MASK = (1 << NODE_FRAME_SHIFT) - 1     # strips the node tag
NODE_PADDR_MASK = (1 << NODE_PADDR_SHIFT) - 1


def node_frame_tag(node: int) -> int:
    """Frame-number tag for NUMA node ``node`` (0 stays 0)."""
    if node < 0:
        raise ValueError("node must be non-negative")
    return node << NODE_FRAME_SHIFT


def vpn(vaddr: int) -> int:
    """Virtual page number (4 KB granularity) of ``vaddr``."""
    return (vaddr & VA_MASK) >> PAGE_SHIFT


def level_index(page: int, level: int) -> int:
    """Radix index used at page-table ``level`` (4 = root .. 1 = leaf).

    ``page`` is a 4 KB-granularity VPN.  Matches the hardware split of the
    36 translated bits into four 9-bit groups.
    """
    if not 1 <= level <= NUM_LEVELS:
        raise ValueError(f"radix level must be 1..4, got {level}")
    return (page >> (LEVEL_BITS * (level - 1))) & _LEVEL_MASK


def flat_index(page: int) -> int:
    """18-bit index into a flattened L2/L1 node (NDPage)."""
    return page & _FLAT_MASK


def align_up(addr: int, alignment: int) -> int:
    """Round ``addr`` up to a multiple of ``alignment`` (a power of two)."""
    return (addr + alignment - 1) & ~(alignment - 1)
