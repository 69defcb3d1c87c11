"""Hardware page-table walker.

Times a page table's walk plan (:meth:`PageTable.walk_info_decorated`)
as memory traffic:

* a sequential plan's steps pay their latencies back to back (a radix
  walk is a pointer chase);
* a parallel plan's probes overlap (elastic-cuckoo ways), the walk
  costing the slowest probe;
* before touching memory the walker probes the per-level PWCs of a
  sequential plan and skips every step at or above the deepest hit
  (no parallel table has a PWC level);
* each PTE request is tagged METADATA and, under NDPage's policy
  (``bypass``), flagged to bypass the L1 cache.

The plan says only what the table knows: PTE addresses and PWC
prefixes.  The walker's own treatment is fixed at construction: one
bypass flag for every read, and one PWC (or None) per level of the
table's ``level_names``, paired with a sequential plan's steps by
position.

A walk is two calls: :meth:`PageTableWalker.plan_info` resolves a
page's walk plan and its translation in one table descent, and
:meth:`PageTableWalker.walk_from_plan` times it.  Plans are not
memoized: walk streams are too irregular for a plan cache to pay, so
every walk descends the table afresh.  Under multiprogramming the
walker ORs its tenant's ASID tag into each PWC key as it probes.  The
sequential path inlines the PWC probe and the L1 metadata hit, falling
back to the hierarchy's positional ``access_fast`` on cache misses;
the parallel path runs ``access_fast`` per probe.

The PWC fill is fused into the probe: both touch the same per-level
sets, the caches are private to this walker, and nothing else runs
between the probe and the end of the walk — so inserting a missing key
at probe time leaves every cache in exactly the state the separate
probe-then-fill sequence would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.request import KIND_METADATA
from repro.mmu.pwc import PwcSet
from repro.vm.address import asid_tag
from repro.vm.base import PageTable


@dataclass(slots=True)
class WalkerStats:
    """Walk counts; walk latency is the MMU's (``MmuStats``)."""

    walks: int = 0
    memory_accesses: int = 0


class PageTableWalker:
    """One core's PTW engine.

    ``bypass`` sends every PTE read past the L1 (NDPage's metadata
    bypass, Section V-A); ``pwcs`` holds the page-walk caches of the
    levels that have one.
    """

    __slots__ = ("table", "hierarchy", "core_id", "pwcs", "bypass",
                 "asid_tag", "stats", "_level_pwcs", "_l1_probe")

    def __init__(self, table: PageTable, hierarchy: MemoryHierarchy,
                 core_id: int, pwcs: Optional[PwcSet] = None,
                 bypass: bool = False, asid: int = 0):
        self.table = table
        self.hierarchy = hierarchy
        self.core_id = core_id
        self.pwcs = pwcs
        self.bypass = bypass
        # Non-zero when this walker serves one tenant of a multi-process
        # run: every PWC key gets the tag ORed in as it is probed, so
        # co-runners sharing the per-core PWCs never alias prefixes.
        # The tag sits above the prefix bits, so set indexing (``key %
        # num_sets``) is unchanged; tag 0 leaves keys as they are.
        self.asid_tag = asid_tag(asid)
        self.stats = WalkerStats()
        # The PWC of each level the table names (None where the level
        # has none), in step order.  The level's PageWalkCache itself
        # is the probe: its sets, geometry and stats are slots, stable
        # for its lifetime (flush mutates the sets in place).
        caches = pwcs._caches if pwcs is not None else {}
        self._level_pwcs = tuple(caches.get(level)
                                 for level in table.level_names)
        # This core's L1, for the inlined metadata-hit fast path:
        # (sets, num_sets, line_shift, hit_latency, metadata stats),
        # all bound once: nothing replaces them during a cache's
        # lifetime.
        l1 = hierarchy.l1ds[core_id]
        self._l1_probe = (l1._sets, l1.num_sets, l1._line_shift,
                          l1.hit_latency, l1._kind_stats[KIND_METADATA])

    def plan_info(self, page: int) -> Optional[tuple]:
        """``(flat, probes, translation)`` for ``page`` from one table
        descent (see :meth:`PageTable.walk_info_decorated` for the plan
        shapes), or None when the page is unmapped.

        Resolved afresh on every walk: walks revisit too few pages for
        a per-page plan cache to pay for the memory it holds.  Carrying
        the translation here spares the MMU a second table descent per
        walk.
        """
        return self.table.walk_info_decorated(page)

    def walk_from_plan(self, now: float, flat: Optional[tuple],
                       probes: Optional[tuple]) -> float:
        """Execute a resolved walk plan at cycle ``now``.

        Exactly one of ``flat``/``probes`` is a tuple (see
        :meth:`PageTable.walk_info_decorated`).
        """
        stats = self.stats
        stats.walks += 1
        if flat is None:
            return self._walk_parallel(now, probes)

        # Probe every level's PWC (hardware probes them in parallel)
        # and resume the walk below the deepest hit; every level records
        # its hit/miss so Section V-C rates stay measurable.  The refill
        # of missing levels is fused into the same pass (see module
        # docstring for why that is equivalent).
        start = 0
        pwcs = self.pwcs
        if pwcs is not None:
            tag = self.asid_tag
            index = 0
            for (_, key), pwc in zip(flat, self._level_pwcs):
                index += 1
                if pwc is not None:
                    if tag:
                        key |= tag
                    pwc_set = pwc._sets[key % pwc.num_sets]
                    if key in pwc_set:
                        pwc.stats.hits += 1
                        pwc_set[key] = pwc_set.pop(key)
                        start = index
                    else:
                        pwc.stats.misses += 1
                        if len(pwc_set) >= pwc.associativity:
                            del pwc_set[next(iter(pwc_set))]
                        pwc_set[key] = None
            clock = now + float(pwcs.latency)
        else:
            clock = now + 0.0

        # Every step from ``start`` on reads its PTE.  Inlined L1 hit
        # for cacheable PTE reads; misses and bypassed reads take the
        # shared fast path, which re-probes the set.
        l1_sets, l1_num_sets, l1_shift, l1_latency, l1_meta_stats = \
            self._l1_probe
        hierarchy = self.hierarchy
        bypass = self.bypass
        for pte_paddr, _ in (flat[start:] if start else flat):
            if not bypass:
                line = pte_paddr >> l1_shift
                cache_set = l1_sets[line % l1_num_sets]
                if line in cache_set:
                    l1_meta_stats.hits += 1
                    cache_set[line] = cache_set.pop(line)
                    clock += l1_latency
                    continue
            clock += hierarchy.access_fast(
                clock, pte_paddr, KIND_METADATA, 0, self.core_id, bypass)

        stats.memory_accesses += len(flat) - start
        return clock - now

    def _walk_parallel(self, now: float, probes: tuple) -> float:
        """Parallel-plan walk (elastic-cuckoo ways): every probe issues
        at ``now`` and the walk costs the slowest, with no PWC.
        ``stats.walks`` was already counted by the caller."""
        latency = 0.0
        hierarchy = self.hierarchy
        core_id = self.core_id
        bypass = self.bypass
        for pte_paddr in probes:
            access_latency = hierarchy.access_fast(
                now, pte_paddr, KIND_METADATA, 0, core_id, bypass)
            if access_latency > latency:
                latency = access_latency
        self.stats.memory_accesses += len(probes)
        # Summed as the clock would be, so cycles round identically.
        return (now + latency) - now
