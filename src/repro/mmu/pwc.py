"""Page-walk caches (Section V-C, Fig. 10).

Each page-table level has a small dedicated cache of recently used
entries, tagged by the translation prefix that level consumes (the
MMU-cache design of Barr et al.).  A hit at level L lets the walker skip
the memory accesses for L and everything above it and resume below.

NDPage keeps the near-perfect L4/L3 PWCs and concentrates the poorly
caching bottom of the tree into a single flattened level, so a typical
walk costs one memory access.

Under multiprogramming the walker tags every key with the owning
address space's ASID (packed above the prefix bits, see
:data:`repro.vm.address.ASID_SHIFT`), so co-runners' entries coexist;
when the scheduler must recycle ASIDs it calls :meth:`PwcSet.flush`,
which clears every level in place (the walker's memoized set bindings
stay valid).

A level's cache is probed and filled only by the walker
(:meth:`repro.mmu.walker.PageTableWalker.walk_from_plan` fuses the two
into one pass over the sets), so this module holds the geometry, the
sets and the counters, not a probe of its own.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.stats import HitMissStats


class PageWalkCache:
    """Small set-associative cache of one level's page-table entries."""

    __slots__ = ("level", "entries", "associativity", "latency",
                 "num_sets", "stats", "_sets")

    def __init__(self, level: str, entries: int = 32,
                 associativity: int = 4, latency: int = 1):
        if entries % associativity != 0:
            raise ValueError("entries must divide by associativity")
        self.level = level
        self.entries = entries
        self.associativity = associativity
        self.latency = latency
        self.num_sets = entries // associativity
        self.stats = HitMissStats()
        # Integer key -> None, oldest (least recently used) first; the
        # walker indexes a set by ``key % num_sets``.
        self._sets: List[Dict[int, None]] = [
            {} for _ in range(self.num_sets)
        ]

    def flush(self) -> None:
        for pwc_set in self._sets:
            pwc_set.clear()


class PwcSet:
    """The per-core collection of level PWCs used by a walker."""

    def __init__(self, levels, entries: int = 32, associativity: int = 4,
                 latency: int = 1):
        self.latency = latency
        self._caches: Dict[str, PageWalkCache] = {
            level: PageWalkCache(level, entries, associativity, latency)
            for level in levels
        }

    def caches(self) -> Dict[str, PageWalkCache]:
        """All level caches, keyed by level name."""
        return dict(self._caches)

    def flush(self) -> None:
        """Clear every level in place (ASID recycle / full shootdown)."""
        for cache in self._caches.values():
            cache.flush()
