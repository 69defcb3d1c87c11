"""Physical frame allocator with 2 MB-block contiguity tracking.

The allocator manages physical memory as an array of 4 KB frames grouped
into 2 MB blocks (512 frames).  Small allocations bump-allocate out of
per-site partial blocks; huge allocations (2 MB pages, and NDPage's
flattened page-table nodes) need a *whole free block*.

Contiguity is the resource whose exhaustion explains the paper's 8-core
Huge Page result (Section VII-B): once small allocations have broken up
every block, 2 MB requests fail and the OS must either compact — at a
large cycle cost — or fall back to 4 KB mappings.  Both paths are
modeled here and in :mod:`repro.vm.os_model`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional

import numpy as np

from repro.vm.address import HUGE_PAGE_SIZE, PAGE_SIZE

FRAMES_PER_BLOCK = HUGE_PAGE_SIZE // PAGE_SIZE  # 512

#: Frames of a boot-fragmented block taken by unmovable boot noise.
BOOT_NOISE_FRAMES = FRAMES_PER_BLOCK // 2


class OutOfMemoryError(Exception):
    """Raised when no physical frame can satisfy an allocation."""


@dataclass
class AllocatorStats:
    """Counters describing allocator behaviour over a run."""

    small_allocs: int = 0
    huge_allocs: int = 0
    huge_failures: int = 0
    compactions: int = 0
    blocks_recovered: int = 0
    frees: int = 0


class _PartialBlock:
    """A 2 MB block being carved into 4 KB frames for one site.

    ``pinned`` marks a boot-fragmented block: its free room sits next
    to unmovable allocations, so compaction can never reclaim it.
    """

    __slots__ = ("first_frame", "next_offset", "pinned")

    def __init__(self, first_frame: int, next_offset: int = 0,
                 pinned: bool = False):
        self.first_frame = first_frame
        self.next_offset = next_offset
        self.pinned = pinned

    @property
    def exhausted(self) -> bool:
        return self.next_offset >= FRAMES_PER_BLOCK


class FrameAllocator:
    """Block-aware physical memory allocator.

    Args:
        phys_bytes: total physical memory (Table I: 16 GB, scaled).
        reserved_bytes: carve-out for the kernel/firmware; never
            allocatable (defaults to 2 % of physical memory).
        compaction_efficiency: fraction of scattered free frames that a
            compaction pass can actually coalesce into whole blocks —
            real compaction is imperfect because unmovable pages pin
            blocks.
        fragmentation: fraction of 2 MB blocks already broken at boot by
            long-uptime unmovable allocations (kernel objects, page
            cache).  Fragmented blocks keep half their frames usable for
            4 KB allocations but can never satisfy a 2 MB request nor be
            compacted — the Ingens-style THP pathology ([23] in the
            paper) that limits transparent huge pages on real systems.
    """

    def __init__(self, phys_bytes: int, reserved_bytes: Optional[int] = None,
                 compaction_efficiency: float = 0.5,
                 fragmentation: float = 0.0):
        if phys_bytes < HUGE_PAGE_SIZE:
            raise ValueError("physical memory smaller than one 2 MB block")
        if not 0.0 <= fragmentation < 1.0:
            raise ValueError("fragmentation must be in [0, 1)")
        if reserved_bytes is None:
            reserved_bytes = phys_bytes // 50
        self.phys_bytes = phys_bytes
        self.compaction_efficiency = compaction_efficiency
        self.fragmentation = fragmentation
        self.num_frames = phys_bytes // PAGE_SIZE
        self.num_blocks = self.num_frames // FRAMES_PER_BLOCK
        reserved_blocks = -(-reserved_bytes // HUGE_PAGE_SIZE)
        if reserved_blocks >= self.num_blocks:
            raise ValueError("reservation swallows all physical memory")
        # Evenly interleave fragmented blocks at the requested rate:
        # usable block i is fragmented iff int(i * f) < int((i + 1) * f).
        # numpy's float64 products and truncating cast match Python's
        # int(i * f) exactly, so this is the same partition, computed
        # without a per-block Python loop.
        usable = self.num_blocks - reserved_blocks
        steps = (np.arange(usable + 1, dtype=np.int64)
                 * fragmentation).astype(np.int64)
        fragmented = steps[:-1] < steps[1:]
        blocks = np.arange(reserved_blocks, self.num_blocks,
                           dtype=np.int64)
        self._free_blocks: Deque[int] = deque(
            blocks[~fragmented].tolist())
        # Boot-fragmented blocks not yet opened, in block order; each
        # has BOOT_NOISE_FRAMES taken.  Only the head is ever carved,
        # so it alone is materialized as a _PartialBlock (on demand).
        self._fragmented: Deque[int] = deque(blocks[fragmented].tolist())
        self._fragmented_head: Optional[_PartialBlock] = None
        self._partials: Dict[int, _PartialBlock] = {}
        self._free_frames: Deque[int] = deque()  # frames returned by free()
        self.stats = AllocatorStats()

    # -- capacity inspection --------------------------------------------------

    @property
    def free_block_count(self) -> int:
        """Whole 2 MB blocks still available (the contiguity pool)."""
        return len(self._free_blocks)

    @property
    def free_frames(self) -> int:
        """Total free 4 KB frames, contiguous or not."""
        # Several sites can carve one block (the opened fragmented
        # head, a stolen partial); count each block once.  A head with
        # room left is always some site's partial.
        partial = sum(FRAMES_PER_BLOCK - p.next_offset
                      for p in set(self._partials.values()))
        fragmented = len(self._fragmented) * (FRAMES_PER_BLOCK
                                              - BOOT_NOISE_FRAMES)
        return (len(self._free_blocks) * FRAMES_PER_BLOCK
                + partial + fragmented + len(self._free_frames))

    @property
    def free_fraction(self) -> float:
        """Fraction of all physical frames currently free."""
        if self.num_frames == 0:
            return 0.0
        return self.free_frames / self.num_frames

    @property
    def pressure(self) -> float:
        """Occupied fraction of physical memory (0 idle .. 1 full).

        Under multiprogramming this is the contention signal tenants
        share: every tenant's faults drain the same pool, so pressure
        approaching 1 means reclaim — and cross-tenant reclaim — is
        imminent for all of them.
        """
        return 1.0 - self.free_fraction

    @property
    def movable_scattered_frames(self) -> int:
        """Scattered free frames compaction could actually coalesce.

        Free room inside boot-fragmented blocks is pinned by unmovable
        allocations and excluded.  A partial block stolen by a second
        site counts once, as in :attr:`free_frames`.
        """
        partial = sum(FRAMES_PER_BLOCK - p.next_offset
                      for p in set(self._partials.values())
                      if not p.pinned)
        return partial + len(self._free_frames)

    # -- allocation -----------------------------------------------------------

    def alloc_frame(self, site: int = 0) -> int:
        """Allocate one 4 KB frame for allocation site ``site``.

        Sites (one per core, plus one for the OS/page tables) carve from
        separate partial blocks, mirroring per-CPU page allocator caches;
        this is what interleaves lifetimes across blocks and fragments
        the contiguity pool.
        """
        if self._free_frames:
            self.stats.small_allocs += 1
            return self._free_frames.popleft()
        # Bump the site's partial block in place (every demand fault
        # and page-table node comes through here).
        partial = self._partials.get(site)
        if partial is None or partial.next_offset >= FRAMES_PER_BLOCK:
            partial = self._open_block(site)  # raises when memory is out
        offset = partial.next_offset
        partial.next_offset = offset + 1
        self.stats.small_allocs += 1
        return partial.first_frame + offset

    def _open_block(self, site: int) -> _PartialBlock:
        # Prefer boot-fragmented blocks for small allocations: their
        # contiguity is already lost, so spending them preserves whole
        # blocks for 2 MB requests (Linux's grouping-by-mobility).
        partial = self._fragmented_head
        if partial is not None and partial.exhausted:
            partial = self._fragmented_head = None
        if partial is None and self._fragmented:
            block = self._fragmented.popleft()
            partial = self._fragmented_head = _PartialBlock(
                block * FRAMES_PER_BLOCK, BOOT_NOISE_FRAMES, pinned=True)
        if partial is not None:
            self._partials[site] = partial
            return partial
        if not self._free_blocks:
            # Steal leftover room from the least-drained other partial.
            best = None
            for other in self._partials.values():
                if not other.exhausted and (
                        best is None
                        or other.next_offset < best.next_offset):
                    best = other
            if best is not None:
                self._partials[site] = best
                return best
            raise OutOfMemoryError("no free 4 KB frame")
        block = self._free_blocks.popleft()
        partial = _PartialBlock(block * FRAMES_PER_BLOCK)
        self._partials[site] = partial
        return partial

    def alloc_huge(self, site: int = 0) -> Optional[int]:
        """Allocate a whole 2 MB block; return its first frame or None.

        None signals contiguity exhaustion: the caller (OS model) decides
        between compaction and 4 KB fallback.  ``site`` keeps the
        signature uniform with :meth:`alloc_frame` (the NUMA facade
        routes on it; the flat allocator has one pool).
        """
        if not self._free_blocks:
            self.stats.huge_failures += 1
            return None
        block = self._free_blocks.popleft()
        self.stats.huge_allocs += 1
        return block * FRAMES_PER_BLOCK

    def free_frame(self, frame: int) -> None:
        """Return one 4 KB frame to the (scattered) free pool."""
        if not 0 <= frame < self.num_frames:
            raise ValueError(f"frame {frame} out of range")
        self.stats.frees += 1
        self._free_frames.append(frame)

    def free_block(self, first_frame: int) -> None:
        """Return a whole 2 MB block (from a reclaimed huge page)."""
        if first_frame % FRAMES_PER_BLOCK != 0:
            raise ValueError(
                f"frame {first_frame} is not 2 MB block-aligned")
        if not 0 <= first_frame < self.num_frames:
            raise ValueError(f"frame {first_frame} out of range")
        self.stats.frees += 1
        self._free_blocks.append(first_frame // FRAMES_PER_BLOCK)

    def compact(self) -> int:
        """Run a compaction pass; return whole blocks recovered.

        Coalesces ``compaction_efficiency`` of the scattered free frames
        into whole blocks.  The *cycle* cost of doing so is charged by
        the OS model, not here.
        """
        self.stats.compactions += 1
        reclaimable = int(self.movable_scattered_frames
                          * self.compaction_efficiency)
        blocks = reclaimable // FRAMES_PER_BLOCK
        if blocks == 0:
            return 0
        # Drain scattered pools to represent the coalesced memory.
        drained = 0
        while self._free_frames and drained < blocks * FRAMES_PER_BLOCK:
            self._free_frames.popleft()
            drained += 1
        for site in list(self._partials):
            if drained >= blocks * FRAMES_PER_BLOCK:
                break
            partial = self._partials[site]
            if partial.pinned:
                continue  # pinned by unmovable boot allocations
            room = FRAMES_PER_BLOCK - partial.next_offset
            take = min(room, blocks * FRAMES_PER_BLOCK - drained)
            partial.next_offset += take
            drained += take
        # The recovered blocks come from imaginary coalesced regions at
        # block granularity; hand back synthetic block numbers from the
        # tail of physical memory that were previously fragmented.
        base = self.num_blocks - blocks
        for i in range(blocks):
            self._free_blocks.append(base + i)
        self.stats.blocks_recovered += blocks
        return blocks

    def frame_paddr(self, frame: int) -> int:
        """Physical byte address of frame ``frame``."""
        return frame * PAGE_SIZE
