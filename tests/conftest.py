"""Shared fixtures for the NDPage reproduction test suite."""

import pytest

from repro.vm.address import ENTRIES_PER_NODE, LEVEL_BITS, PAGE_SHIFT
from repro.vm.base import Translation
from repro.vm.cuckoo import ElasticCuckooPageTable
from repro.vm.frames import FrameAllocator
from repro.vm.ideal import IdealPageTable

MIB = 1024 ** 2
GIB = 1024 ** 3


@pytest.fixture
def allocator():
    """A modest 64 MB physical memory for page-table unit tests."""
    return FrameAllocator(64 * MIB)


@pytest.fixture
def big_allocator():
    """A 1 GB physical memory for tests that map many pages."""
    return FrameAllocator(GIB)


@pytest.fixture
def fragmented_allocator():
    """Physical memory with 50% of blocks broken at boot."""
    return FrameAllocator(64 * MIB, fragmentation=0.5)


def _make_vpn(i4: int, i3: int, i2: int, i1: int) -> int:
    for name, idx in (("i4", i4), ("i3", i3), ("i2", i2), ("i1", i1)):
        if not 0 <= idx < ENTRIES_PER_NODE:
            raise ValueError(f"{name} out of range: {idx}")
    return (((i4 << LEVEL_BITS | i3) << LEVEL_BITS | i2) << LEVEL_BITS) | i1


@pytest.fixture(scope="session")
def make_vpn():
    """``make_vpn(i4, i3, i2, i1)``: the VPN with those four radix
    indices (the inverse of :func:`repro.vm.address.level_index`)."""
    return _make_vpn


def _count_mapped_pages(table) -> int:
    """4 KB pages ``table`` maps, counted from its live entries: 512
    for each 2 MB leaf, one for each other leaf."""
    if isinstance(table, ElasticCuckooPageTable):
        return sum(len(way.slots) for way in table._ways)
    if isinstance(table, IdealPageTable):
        return len(table._mappings)
    total, nodes = 0, [table._root]  # the radix family's node trees
    while nodes:
        for entry in nodes.pop().entries.values():
            if type(entry) is Translation:
                total += 1 << (entry.page_shift - PAGE_SHIFT)
            else:
                nodes.append(entry)
    return total


@pytest.fixture(scope="session")
def mapped_pages():
    """``mapped_pages(table)``: the 4 KB pages a table maps, counted
    from its live entries (512 per 2 MB leaf)."""
    return _count_mapped_pages


class LruSets:
    """Reference model of one set-associative LRU structure.

    One list per set, oldest entry first; a key's set is ``key %
    num_sets``, as in every TLB, PWC and cache of the simulator.  The
    model tracks residency and recency only: callers keep any payload
    (translations, dirty bits) next to it.
    """

    def __init__(self, num_sets: int, ways: int):
        self.num_sets = num_sets
        self.ways = ways
        self.sets = [[] for _ in range(num_sets)]

    def set_of(self, key: int) -> list:
        return self.sets[key % self.num_sets]

    def touch(self, key: int) -> bool:
        """Probe ``key``: True on a hit, which makes it the youngest."""
        entries = self.set_of(key)
        if key not in entries:
            return False
        entries.remove(key)
        entries.append(key)
        return True

    def fill(self, key: int):
        """Insert the absent ``key`` as the youngest entry; return the
        oldest entry it evicted from a full set, or None."""
        entries = self.set_of(key)
        victim = entries.pop(0) if len(entries) >= self.ways else None
        entries.append(key)
        return victim

    def access(self, key: int):
        """Probe, and fill on a miss: ``(hit, victim_or_None)``."""
        if self.touch(key):
            return True, None
        return False, self.fill(key)

    def remove(self, key: int) -> bool:
        entries = self.set_of(key)
        if key not in entries:
            return False
        entries.remove(key)
        return True

    def clear(self) -> None:
        for entries in self.sets:
            entries.clear()


@pytest.fixture(scope="session")
def lru_sets():
    """The :class:`LruSets` reference model (call it to build one)."""
    return LruSets
