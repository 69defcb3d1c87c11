"""Tests for the mechanism registry (Section VI)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.flattened import FlattenedPageTable
from repro.core.flattened_upper import UpperFlattenedPageTable
from repro.core.mechanisms import (
    MECHANISMS,
    PAPER_MECHANISMS,
    get_mechanism,
)
from repro.vm.base import Translation
from repro.vm.cuckoo import ElasticCuckooPageTable
from repro.vm.frames import FrameAllocator
from repro.vm.address import (
    HUGE_PAGE_SHIFT,
    LEVEL_BITS,
    PAGE_SHIFT,
    PAGE_SIZE,
    PTE_SIZE,
)
from repro.vm.ideal import IdealPageTable
from repro.vm.os_model import PagingPolicy
from repro.vm.radix import RadixPageTable

MIB = 1024 ** 2


class TestRegistry:
    def test_paper_mechanisms_present(self):
        assert set(PAPER_MECHANISMS) <= set(MECHANISMS)

    def test_paper_order(self):
        assert PAPER_MECHANISMS == ("radix", "ech", "hugepage",
                                    "ndpage", "ideal")

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError):
            get_mechanism("tlb-of-theseus")

    @pytest.mark.parametrize("key,table_cls", [
        ("radix", RadixPageTable),
        ("ech", ElasticCuckooPageTable),
        ("hugepage", RadixPageTable),
        ("ndpage", FlattenedPageTable),
        ("ideal", IdealPageTable),
    ])
    def test_table_types(self, key, table_cls):
        spec = get_mechanism(key)
        table = spec.table(FrameAllocator(256 * MIB))
        assert isinstance(table, table_cls)

    def test_only_ndpage_bypasses(self):
        assert get_mechanism("ndpage").bypass_ptes is True
        for key in ("radix", "ech", "hugepage", "ideal"):
            assert get_mechanism(key).bypass_ptes is False

    def test_only_hugepage_uses_thp(self):
        assert get_mechanism("hugepage").paging_policy \
            is PagingPolicy.HUGE
        for key in ("radix", "ech", "ndpage", "ideal"):
            assert get_mechanism(key).paging_policy is PagingPolicy.SMALL

    def test_only_ideal_is_ideal(self):
        assert get_mechanism("ideal").ideal
        assert not any(get_mechanism(k).ideal
                       for k in ("radix", "ech", "hugepage", "ndpage"))

    def test_pwc_levels(self):
        assert get_mechanism("radix").pwc_levels \
            == ("PL4", "PL3", "PL2", "PL1")
        assert get_mechanism("ndpage").pwc_levels \
            == ("PL4", "PL3", "PL2/1")
        assert get_mechanism("ech").pwc_levels == ()

    def test_ablation_variants(self):
        bypass_only = get_mechanism("ndpage-bypass-only")
        assert isinstance(bypass_only.table(FrameAllocator(64 * MIB)),
                          RadixPageTable)
        assert bypass_only.bypass_ptes is True
        flatten_only = get_mechanism("ndpage-flatten-only")
        assert flatten_only.bypass_ptes is False
        assert get_mechanism("ndpage-nopwc").pwc_levels == ()


#: 4 KB pages in four PL4 regions of 4 GB each, so pages share
#: upper-level nodes and PWC prefixes.
SMALL_PAGES = st.builds(lambda region, offset: (region << 27) | offset,
                        st.integers(0, 3), st.integers(0, (1 << 20) - 1))
#: 2 MB-aligned pages in a region of their own (PL4 index 4).
HUGE_PAGES = st.builds(lambda group: (4 << 27) | (group << LEVEL_BITS),
                       st.integers(0, (1 << 18) - 1))
#: A region nothing is mapped in.
UNMAPPED_PAGE = 5 << 27


class RecordingAllocator(FrameAllocator):
    """A frame allocator that records the first frame of every
    allocation, in order.  A table under test allocates nothing but
    its own structures, so this is its record of page-table
    allocations."""

    def __init__(self, phys_bytes: int):
        super().__init__(phys_bytes)
        self.allocations = []

    def alloc_frame(self, site: int = 0) -> int:
        frame = super().alloc_frame(site)
        self.allocations.append(frame)
        return frame

    def alloc_huge(self, site: int = 0):
        frame = super().alloc_huge(site)
        if frame is not None:
            self.allocations.append(frame)
        return frame


class RadixFamilyModel:
    """Reference walk plans of a radix-family table, derived from the
    VPN, the table's level split and the allocator's record alone.

    ``levels`` is the split, root first: ``(name, index bits)`` per
    level, consuming the 36-bit VPN from the top.  A node is named by
    the VPN bits above its level's index; nodes take the recorded
    allocations in first-touch order, root first (the root at
    construction), so the model never reads the table's nodes.  A
    level at ``huge_depth`` holds 2 MB leaves.
    """

    def __init__(self, levels, allocations, huge_depth=None):
        self.level_names = tuple(name for name, _ in levels)
        self.huge_depth = huge_depth
        self._allocations = iter(allocations)
        # Per level: (name, index mask, bits below it, bits below and
        # at it); the third is that level's PWC prefix shift.
        self._levels = []
        below = sum(bits for _, bits in levels)
        for name, bits in levels:
            below -= bits
            self._levels.append((name, (1 << bits) - 1, below,
                                 below + bits))
        self._bases = {}
        self._leaves = {}  # 4 KB page or (2 MB group,) -> Translation
        self._touch(0, 0)

    def _touch(self, depth, page):
        key = (depth, page >> self._levels[depth][3])
        if key not in self._bases:
            self._bases[key] = next(self._allocations) * PAGE_SIZE

    def map_page(self, page, pfn, page_shift):
        depth = len(self._levels) - 1
        if page_shift == HUGE_PAGE_SHIFT:
            depth = self.huge_depth
            self._leaves[(page >> LEVEL_BITS,)] = Translation(
                pfn >> LEVEL_BITS, HUGE_PAGE_SHIFT)
        else:
            self._leaves[page] = Translation(pfn, PAGE_SHIFT)
        for level in range(depth + 1):
            self._touch(level, page)

    def walk_stages(self, page):
        huge = self._leaves.get((page >> LEVEL_BITS,))
        translation = huge or self._leaves.get(page)
        if translation is None:
            return None
        depth = self.huge_depth if huge else len(self._levels) - 1
        steps = []
        for level, (_, mask, shift, node_shift) in enumerate(
                self._levels[:depth + 1]):
            base = self._bases[(level, page >> node_shift)]
            prefix = page >> shift
            steps.append((base + (prefix & mask) * PTE_SIZE, prefix))
        return tuple(steps), None, translation


#: The level splits of the radix-family tables.
RADIX_LEVELS = (("PL4", 9), ("PL3", 9), ("PL2", 9), ("PL1", 9))
FLAT_LEVELS = (("PL4", 9), ("PL3", 9), ("PL2/1", 18))
UPPER_FLAT_LEVELS = (("PL4", 9), ("PL3/2", 18), ("PL1", 9))

#: What ``get_mechanism("ech")`` builds: 2 ways of 2^14 16-byte slots
#: each, salts drawn from a ``random.Random(0x5EED)``.
ECH_WAYS, ECH_SLOTS, ECH_ENTRY, ECH_SEED = 2, 1 << 14, 16, 0x5EED


def splitmix64(value: int) -> int:
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) \
        & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) \
        & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


class CuckooModel:
    """Reference plans of an ECH table that has not grown: a parallel
    probe per way, at the slot the way's salt hashes the VPN to.  Each
    way allocates its frames one at a time and addresses its slots
    from the first."""

    def __init__(self, allocations):
        self.level_names = tuple(f"ECH-way{i}" for i in range(ECH_WAYS))
        rng = random.Random(ECH_SEED)
        frames = -(-ECH_SLOTS * ECH_ENTRY // PAGE_SIZE)
        self._ways = [(rng.getrandbits(64),
                       allocations[way * frames] * PAGE_SIZE)
                      for way in range(ECH_WAYS)]
        self._leaves = {}

    def map_page(self, page, pfn, page_shift):
        self._leaves[page] = Translation(pfn, page_shift)

    def walk_stages(self, page):
        translation = self._leaves.get(page)
        if translation is None:
            return None
        probes = tuple(base + splitmix64(page ^ salt) % ECH_SLOTS * ECH_ENTRY
                       for salt, base in self._ways)
        return None, probes, translation


class IdealModel:
    """The ideal table reads nothing: an empty flat plan."""

    level_names = ()

    def __init__(self):
        self._leaves = {}

    def map_page(self, page, pfn, page_shift):
        self._leaves[page] = Translation(pfn, page_shift)

    def walk_stages(self, page):
        translation = self._leaves.get(page)
        return None if translation is None else ((), None, translation)


def plan_model(table, allocations):
    """The reference model of ``table``'s class."""
    if isinstance(table, RadixPageTable):
        return RadixFamilyModel(RADIX_LEVELS, allocations, huge_depth=2)
    if isinstance(table, FlattenedPageTable):
        return RadixFamilyModel(FLAT_LEVELS, allocations)
    if isinstance(table, UpperFlattenedPageTable):
        return RadixFamilyModel(UPPER_FLAT_LEVELS, allocations)
    if isinstance(table, ElasticCuckooPageTable):
        return CuckooModel(allocations)
    assert isinstance(table, IdealPageTable)
    return IdealModel()


class TestLiveWalkPlan:
    """Each mechanism's live walk plan (``walk_info_decorated``, the
    one method the walker calls) against the reference model of its
    table: the same level names, PTE addresses, PWC prefixes,
    sequential-versus-parallel shape and translation."""

    @pytest.mark.parametrize("key", sorted(MECHANISMS))
    @given(small=st.lists(SMALL_PAGES, min_size=1, max_size=30,
                          unique=True),
           huge=st.lists(HUGE_PAGES, max_size=4, unique=True),
           offsets=st.lists(st.integers(0, 511), min_size=1,
                            max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_plan_matches_walk_stages(self, key, small, huge, offsets):
        allocator = RecordingAllocator(1024 * MIB)
        table = get_mechanism(key).table(allocator)
        maps = [(page, pfn, PAGE_SHIFT)
                for pfn, page in enumerate(small, start=1)]
        walked = list(small)
        if isinstance(table, RadixPageTable):
            maps += [(page, group << LEVEL_BITS, HUGE_PAGE_SHIFT)
                     for group, page in enumerate(huge, start=1)]
            walked += [page + offset for page in huge for offset in offsets]
        for page, pfn, page_shift in maps:
            table.map_page(page, pfn=pfn, page_shift=page_shift)
        if isinstance(table, ElasticCuckooPageTable):
            assert table.stats.resizes == 0  # the model's premise

        model = plan_model(table, allocator.allocations)
        for page, pfn, page_shift in maps:
            model.map_page(page, pfn, page_shift)
        assert table.level_names == model.level_names
        for page in walked + [UNMAPPED_PAGE, small[0] ^ 1]:
            assert table.walk_info_decorated(page) \
                == model.walk_stages(page), hex(page)
