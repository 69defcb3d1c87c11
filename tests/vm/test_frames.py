"""Tests for the physical frame allocator and its contiguity model."""

import gc
from collections import deque
from typing import Deque, Dict, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.vm.address import HUGE_PAGE_SIZE, PAGE_SIZE
from repro.vm.frames import (
    FRAMES_PER_BLOCK,
    AllocatorStats,
    FrameAllocator,
    OutOfMemoryError,
    _PartialBlock,
)

MIB = 1024 ** 2
GIB = 1024 ** 3


class TestBasicAllocation:
    def test_frames_are_distinct(self, allocator):
        frames = [allocator.alloc_frame() for _ in range(1000)]
        assert len(set(frames)) == 1000

    def test_frames_in_range(self, allocator):
        for _ in range(100):
            frame = allocator.alloc_frame()
            assert 0 <= frame < allocator.num_frames

    def test_small_allocs_counted(self, allocator):
        for _ in range(7):
            allocator.alloc_frame()
        assert allocator.stats.small_allocs == 7

    def test_frame_paddr(self, allocator):
        frame = allocator.alloc_frame()
        assert allocator.frame_paddr(frame) == frame * 4096

    def test_sites_use_separate_blocks(self, allocator):
        a = allocator.alloc_frame(site=0)
        b = allocator.alloc_frame(site=1)
        assert a // FRAMES_PER_BLOCK != b // FRAMES_PER_BLOCK

    def test_same_site_is_contiguous_within_block(self, allocator):
        first = allocator.alloc_frame(site=3)
        second = allocator.alloc_frame(site=3)
        assert second == first + 1

    def test_reserved_memory_not_allocated(self):
        alloc = FrameAllocator(16 * MIB, reserved_bytes=4 * MIB)
        frame = alloc.alloc_frame()
        assert frame >= (4 * MIB) // 4096

    def test_too_small_memory_rejected(self):
        with pytest.raises(ValueError):
            FrameAllocator(1024)

    def test_reservation_cannot_swallow_everything(self):
        with pytest.raises(ValueError):
            FrameAllocator(4 * MIB, reserved_bytes=4 * MIB)


class TestHugeAllocation:
    def test_huge_is_block_aligned(self, allocator):
        frame = allocator.alloc_huge()
        assert frame is not None
        assert frame % FRAMES_PER_BLOCK == 0

    def test_huge_blocks_distinct(self, allocator):
        a = allocator.alloc_huge()
        b = allocator.alloc_huge()
        assert a != b

    def test_huge_exhaustion_returns_none(self):
        alloc = FrameAllocator(8 * MIB, reserved_bytes=0)
        blocks = []
        while True:
            frame = alloc.alloc_huge()
            if frame is None:
                break
            blocks.append(frame)
        assert alloc.stats.huge_failures == 1
        assert len(blocks) == alloc.num_blocks

    def test_huge_and_small_never_overlap(self, allocator):
        small = {allocator.alloc_frame() for _ in range(600)}
        huge_first = allocator.alloc_huge()
        huge = set(range(huge_first, huge_first + FRAMES_PER_BLOCK))
        assert not small & huge

    def test_free_block_returns_contiguity(self, allocator):
        while allocator.alloc_huge() is not None:
            pass
        assert allocator.free_block_count == 0
        allocator.free_block(FRAMES_PER_BLOCK)  # give one back
        assert allocator.free_block_count == 1
        assert allocator.alloc_huge() is not None

    def test_free_block_alignment_enforced(self, allocator):
        with pytest.raises(ValueError):
            allocator.free_block(1)


class TestFreeAndReuse:
    def test_freed_frame_is_reused(self, allocator):
        frame = allocator.alloc_frame()
        allocator.free_frame(frame)
        assert allocator.alloc_frame() == frame

    def test_free_out_of_range_rejected(self, allocator):
        with pytest.raises(ValueError):
            allocator.free_frame(allocator.num_frames)

    def test_out_of_memory_raises(self):
        alloc = FrameAllocator(4 * MIB, reserved_bytes=0)
        for _ in range(alloc.num_frames):
            alloc.alloc_frame()
        with pytest.raises(OutOfMemoryError):
            alloc.alloc_frame()

    def test_exhaustion_steals_other_sites_partials(self):
        alloc = FrameAllocator(4 * MIB, reserved_bytes=0)
        alloc.alloc_frame(site=0)  # opens block 0, 511 frames left there
        # Site 1 consumes the remaining block.
        taken = 1
        while alloc.free_block_count:
            alloc.alloc_frame(site=1)
            taken += 1
        # Site 1 keeps allocating by stealing site 0's partial block.
        remaining = alloc.num_frames - taken
        for _ in range(remaining):
            alloc.alloc_frame(site=1)
        with pytest.raises(OutOfMemoryError):
            alloc.alloc_frame(site=1)


class TestAccounting:
    def test_free_frames_decrease_monotonically(self, allocator):
        before = allocator.free_frames
        allocator.alloc_frame()
        assert allocator.free_frames == before - 1

    def test_huge_alloc_consumes_whole_block(self, allocator):
        before = allocator.free_frames
        allocator.alloc_huge()
        assert allocator.free_frames == before - FRAMES_PER_BLOCK

    def test_carving_a_fragmented_block_counts_it_once(self):
        alloc = FrameAllocator(GIB, fragmentation=0.5)
        start = alloc.free_frames
        alloc.alloc_frame(site=0)   # opens a boot-fragmented block
        assert alloc.free_frames == start - 1
        alloc.alloc_frame(site=1)   # carves the same block
        assert alloc.free_frames == start - 2

    def test_stolen_partial_counts_once_as_movable(self):
        """Site 1 runs out of blocks and steals site 0's partial: its
        free room is movable once, and compaction cannot coalesce a
        whole block out of 510 free frames."""
        alloc = FrameAllocator(4 * MIB, reserved_bytes=0,
                               compaction_efficiency=1.0)
        alloc.alloc_frame(site=0)
        for _ in range(513):
            alloc.alloc_frame(site=1)
        assert alloc.free_frames == 510
        assert alloc.movable_scattered_frames == 510
        assert alloc.compact() == 0
        assert alloc.free_frames == 510

    @given(fragmentation=st.floats(0.0, 0.9),
           ops=st.lists(st.tuples(st.sampled_from(["small", "huge"]),
                                  st.integers(0, 3)), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_frame_conservation_across_sites(self, fragmentation, ops):
        """Free frames fall by exactly what each allocation takes, down
        to zero when memory runs out, while sites share blocks."""
        alloc = FrameAllocator(4 * MIB, reserved_bytes=0,
                               fragmentation=fragmentation)
        free = alloc.free_frames
        for kind, site in ops:
            for _ in range(200 if kind == "small" else 1):
                try:
                    if kind == "small":
                        alloc.alloc_frame(site)
                        free -= 1
                    elif alloc.alloc_huge(site) is not None:
                        free -= FRAMES_PER_BLOCK
                except OutOfMemoryError:
                    assert free == 0
                assert alloc.free_frames == free

    @given(st.lists(st.sampled_from(["small", "huge"]), max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_frame_conservation(self, ops):
        alloc = FrameAllocator(64 * MIB, reserved_bytes=0)
        total = alloc.free_frames
        used = 0
        for op in ops:
            if op == "small":
                alloc.alloc_frame()
                used += 1
            else:
                if alloc.alloc_huge() is not None:
                    used += FRAMES_PER_BLOCK
        assert alloc.free_frames == total - used


class TestBootFragmentation:
    def test_fragmentation_shrinks_contiguity_pool(self):
        whole = FrameAllocator(64 * MIB, fragmentation=0.0)
        half = FrameAllocator(64 * MIB, fragmentation=0.5)
        assert half.free_block_count < whole.free_block_count

    def test_fragmentation_rate_respected(self):
        alloc = FrameAllocator(64 * MIB, fragmentation=0.5)
        usable = alloc.num_blocks - 1  # minus default reservation
        assert abs(alloc.free_block_count - usable / 2) <= 2

    def test_fragmented_blocks_still_serve_small_allocs(self):
        alloc = FrameAllocator(8 * MIB, reserved_bytes=0,
                               fragmentation=0.9)
        # Far more frames available than whole blocks would suggest.
        frames = [alloc.alloc_frame() for _ in range(600)]
        assert len(set(frames)) == 600

    def test_small_allocs_prefer_fragmented_blocks(self):
        alloc = FrameAllocator(64 * MIB, reserved_bytes=0,
                               fragmentation=0.25)
        blocks_before = alloc.free_block_count
        alloc.alloc_frame()
        # The small allocation was carved out of a fragmented block,
        # preserving the whole-block pool (grouping by mobility).
        assert alloc.free_block_count == blocks_before

    def test_invalid_fragmentation_rejected(self):
        with pytest.raises(ValueError):
            FrameAllocator(64 * MIB, fragmentation=1.0)

    def test_fragmented_free_room_not_compactable(self):
        alloc = FrameAllocator(64 * MIB, reserved_bytes=0,
                               fragmentation=0.5)
        recovered = alloc.compact()
        assert recovered == 0  # boot noise is unmovable


class TestCompaction:
    def test_compaction_recovers_blocks_from_freed_frames(self):
        alloc = FrameAllocator(16 * MIB, reserved_bytes=0)
        frames = [alloc.alloc_frame() for _ in range(3 * FRAMES_PER_BLOCK)]
        while alloc.alloc_huge() is not None:
            pass
        for frame in frames:
            alloc.free_frame(frame)
        assert alloc.free_block_count == 0
        recovered = alloc.compact()
        assert recovered >= 1
        assert alloc.free_block_count == recovered
        assert alloc.alloc_huge() is not None

    def test_compaction_efficiency_limits_recovery(self):
        alloc = FrameAllocator(16 * MIB, reserved_bytes=0,
                               compaction_efficiency=0.0)
        frames = [alloc.alloc_frame() for _ in range(2 * FRAMES_PER_BLOCK)]
        for frame in frames:
            alloc.free_frame(frame)
        assert alloc.compact() == 0

    def test_compaction_counted(self, allocator):
        allocator.compact()
        assert allocator.stats.compactions == 1


# -- differential test against the eager allocator ---------------------------
#
# The allocator used to materialize every block at boot: a Python loop
# over all usable blocks and one _PartialBlock per boot-fragmented one.
# It is kept here (docstrings dropped; free_frames and
# movable_scattered_frames count each partial block once, as the lazy
# allocator does) as the reference model for the lazy allocator, which
# must return the same frames and report the same capacity after every
# operation.

class _EagerPartialBlock:
    """The old _PartialBlock."""

    __slots__ = ("first_frame", "next_offset")

    def __init__(self, first_frame: int):
        self.first_frame = first_frame
        self.next_offset = 0

    @property
    def exhausted(self) -> bool:
        return self.next_offset >= FRAMES_PER_BLOCK

    def take(self) -> int:
        frame = self.first_frame + self.next_offset
        self.next_offset += 1
        return frame


class EagerFrameAllocator:
    """The old FrameAllocator: every block materialized at boot."""

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
        usable = range(reserved_blocks, self.num_blocks)
        self._free_blocks: Deque[int] = deque()
        self._fragmented: Deque[_EagerPartialBlock] = deque()
        for i, block in enumerate(usable):
            # Evenly interleave fragmented blocks at the requested rate.
            if int(i * fragmentation) < int((i + 1) * fragmentation):
                partial = _EagerPartialBlock(block * FRAMES_PER_BLOCK)
                partial.next_offset = FRAMES_PER_BLOCK // 2  # boot noise
                self._fragmented.append(partial)
            else:
                self._free_blocks.append(block)
        self._partials: Dict[int, _EagerPartialBlock] = {}
        self._free_frames: Deque[int] = deque()  # frames returned by free()
        self.stats = AllocatorStats()

    # -- capacity inspection --------------------------------------------------

    @property
    def free_block_count(self) -> int:
        return len(self._free_blocks)

    @property
    def free_frames(self) -> int:
        # Each partial block once, however many sites carve it.
        blocks = set(self._partials.values()).union(self._fragmented)
        partial = sum(FRAMES_PER_BLOCK - p.next_offset for p in blocks)
        return (len(self._free_blocks) * FRAMES_PER_BLOCK
                + partial + len(self._free_frames))

    @property
    def free_fraction(self) -> float:
        if self.num_frames == 0:
            return 0.0
        return self.free_frames / self.num_frames

    @property
    def pressure(self) -> float:
        return 1.0 - self.free_fraction

    @property
    def movable_scattered_frames(self) -> int:
        partial = sum(FRAMES_PER_BLOCK - p.next_offset
                      for p in set(self._partials.values())
                      if not self._is_fragmented(p))
        return partial + len(self._free_frames)

    def _is_fragmented(self, partial: _EagerPartialBlock) -> bool:
        return any(p is partial for p in self._fragmented)

    # -- allocation -----------------------------------------------------------

    def alloc_frame(self, site: int = 0) -> int:
        if self._free_frames:
            self.stats.small_allocs += 1
            return self._free_frames.popleft()
        partial = self._partials.get(site)
        if partial is None or partial.exhausted:
            partial = self._open_block(site)
        self.stats.small_allocs += 1
        return partial.take()

    def _open_block(self, site: int) -> _EagerPartialBlock:
        # Prefer boot-fragmented blocks for small allocations: their
        # contiguity is already lost, so spending them preserves whole
        # blocks for 2 MB requests (Linux's grouping-by-mobility).
        while self._fragmented:
            partial = self._fragmented[0]
            if partial.exhausted:
                self._fragmented.popleft()
                continue
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
        partial = _EagerPartialBlock(block * FRAMES_PER_BLOCK)
        self._partials[site] = partial
        return partial

    def alloc_huge(self, site: int = 0) -> Optional[int]:
        if not self._free_blocks:
            self.stats.huge_failures += 1
            return None
        block = self._free_blocks.popleft()
        self.stats.huge_allocs += 1
        return block * FRAMES_PER_BLOCK

    def free_frame(self, frame: int) -> None:
        if not 0 <= frame < self.num_frames:
            raise ValueError(f"frame {frame} out of range")
        self.stats.frees += 1
        self._free_frames.append(frame)

    def free_block(self, first_frame: int) -> None:
        if first_frame % FRAMES_PER_BLOCK != 0:
            raise ValueError(
                f"frame {first_frame} is not 2 MB block-aligned")
        if not 0 <= first_frame < self.num_frames:
            raise ValueError(f"frame {first_frame} out of range")
        self.stats.frees += 1
        self._free_blocks.append(first_frame // FRAMES_PER_BLOCK)

    def compact(self) -> int:
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
            if self._is_fragmented(partial):
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


#: One allocator operation: ("alloc", site, count) runs alloc_frame
#: count times, ("huge", site), ("free", pick), ("free_block", pick)
#: and ("compact",).  ``pick`` indexes the frames handed out so far,
#: or is a raw (possibly invalid) frame when there are none.
OPS = st.one_of(
    st.tuples(st.just("alloc"), st.integers(0, 2), st.integers(1, 700)),
    st.tuples(st.just("huge"), st.integers(0, 2)),
    st.tuples(st.just("free"), st.integers(0, 1 << 16)),
    st.tuples(st.just("free_block"), st.integers(0, 1 << 16)),
    st.tuples(st.just("compact")),
)


def _outcome(call):
    try:
        return "ok", call()
    except (OutOfMemoryError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _capacity(alloc):
    return (alloc.free_frames, alloc.free_block_count,
            alloc.movable_scattered_frames, alloc.stats)


def _apply(alloc, op, small, huge):
    """Run ``op``; return the outcomes of its allocator calls."""
    kind = op[0]
    if kind == "alloc":
        outcomes = [_outcome(lambda: alloc.alloc_frame(op[1]))
                    for _ in range(op[2])]
        small.extend(value for status, value in outcomes
                     if status == "ok")
        return outcomes
    if kind == "huge":
        outcome = _outcome(lambda: alloc.alloc_huge(op[1]))
        if outcome[1] is not None:
            huge.append(outcome[1])
        return [outcome]
    if kind == "free":
        frame = small.pop(op[1] % len(small)) if small else op[1]
        return [_outcome(lambda: alloc.free_frame(frame))]
    if kind == "free_block":
        first = huge.pop(op[1] % len(huge)) if huge else op[1]
        return [_outcome(lambda: alloc.free_block(first))]
    return [_outcome(alloc.compact)]


class TestLazyBootDifferential:
    @given(blocks=st.integers(1, 24),
           tail_frames=st.integers(0, FRAMES_PER_BLOCK - 1),
           reserved=st.one_of(st.none(),
                              st.integers(0, 4 * HUGE_PAGE_SIZE)),
           fragmentation=st.floats(0.0, 0.9),
           ops=st.lists(OPS, max_size=40))
    # Site 1 exhausts the free blocks and steals site 0's partial.
    @example(blocks=2, tail_frames=0, reserved=0, fragmentation=0.0,
             ops=[("alloc", 0, 1), ("alloc", 1, 513), ("compact",)])
    @settings(max_examples=150, deadline=None)
    def test_matches_eager_allocator(self, blocks, tail_frames, reserved,
                                     fragmentation, ops):
        phys = blocks * HUGE_PAGE_SIZE + tail_frames * PAGE_SIZE
        boot = [_outcome(lambda: cls(phys, reserved_bytes=reserved,
                                     fragmentation=fragmentation))
                for cls in (EagerFrameAllocator, FrameAllocator)]
        assert boot[0][0] == boot[1][0]
        if boot[0][0] != "ok":
            assert boot[0] == boot[1]
            return
        eager, lazy = boot[0][1], boot[1][1]
        assert _capacity(lazy) == _capacity(eager)
        handed = ([], []), ([], [])
        for op in ops:
            assert (_apply(lazy, op, *handed[1])
                    == _apply(eager, op, *handed[0])), op
            assert _capacity(lazy) == _capacity(eager), op

    def test_boot_builds_no_partial_blocks(self):
        gc.collect()

        def partial_blocks():
            return sum(type(obj) is _PartialBlock
                       for obj in gc.get_objects())

        before = partial_blocks()
        alloc = FrameAllocator(16 * GIB, fragmentation=0.55)
        assert partial_blocks() == before
        eager = EagerFrameAllocator(16 * GIB, fragmentation=0.55)
        assert alloc.free_frames == eager.free_frames
        assert alloc.free_block_count == eager.free_block_count
        alloc.alloc_frame()
        assert partial_blocks() == before + 1  # the opened head only
