"""Hardware page-table walker.

Times a page table's walk plan (:meth:`PageTable.walk_info_decorated`)
as memory traffic:

* a flat plan's steps pay their latencies back to back (a radix walk
  is a pointer chase);
* the steps within a stage of a staged plan overlap (elastic-cuckoo
  ways), the stage costing the slowest probe;
* before touching memory the walker probes the per-level PWCs of a
  flat plan and skips every step at or above the deepest hit (no
  staged table has a PWC level);
* each PTE request is tagged METADATA and, under NDPage's policy,
  flagged to bypass the L1 cache.

A walk is two calls: :meth:`PageTableWalker.plan_info` resolves a
page's walk plan (PTE addresses, PWC prefixes and per-level
bypass/PWC treatment) and its translation in one table descent, and
:meth:`PageTableWalker.walk_from_plan` times it.  Plans are not
memoized: walk streams are too irregular for a plan cache to pay, so
every walk descends the table afresh.  Under multiprogramming the
walker ORs its tenant's ASID tag into each PWC key as it probes.  The
flat path inlines the PWC probe and the L1 metadata hit, falling back
to the hierarchy's positional ``access_fast`` on cache misses; the
staged path runs ``access_fast`` per step.

The PWC fill is fused into the probe: both touch the same per-level
sets, the caches are private to this walker, and nothing else runs
between the probe and the end of the walk — so inserting a missing key
at probe time leaves every cache in exactly the state the separate
probe-then-fill sequence would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.bypass import BypassPolicy, NoBypass
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
    """One core's PTW engine."""

    __slots__ = ("table", "hierarchy", "core_id", "pwcs", "bypass",
                 "asid_tag", "stats", "_level_info", "_l1_probe")

    def __init__(self, table: PageTable, hierarchy: MemoryHierarchy,
                 core_id: int, pwcs: Optional[PwcSet] = None,
                 bypass: Optional[BypassPolicy] = None, asid: int = 0):
        self.table = table
        self.hierarchy = hierarchy
        self.core_id = core_id
        self.pwcs = pwcs
        self.bypass = bypass if bypass is not None else NoBypass()
        # Non-zero when this walker serves one tenant of a multi-process
        # run: every PWC key gets the tag ORed in as it is probed, so
        # co-runners sharing the per-core PWCs never alias prefixes.
        # The tag sits above the prefix bits, so set indexing (``key %
        # num_sets``) is unchanged; tag 0 leaves keys as they are.
        self.asid_tag = asid_tag(asid)
        self.stats = WalkerStats()
        # level -> (bypass_flag, pwc_or_None) for every level the
        # table names: bypass policies are pure per level name and the
        # PWC set is fixed, so both halves of a step's treatment are
        # resolved once.  The level's PageWalkCache itself is the
        # probe: its sets, geometry and stats are slots, stable for its
        # lifetime (flush mutates the sets in place).
        caches = pwcs._caches if pwcs is not None else {}
        self._level_info: Dict[str, tuple] = {
            level: (1 if self.bypass.should_bypass(level) else 0,
                    caches.get(level))
            for level in table.level_names}
        # This core's L1, for the inlined metadata-hit fast path:
        # (sets, num_sets, line_shift, hit_latency, metadata stats),
        # all bound once: nothing replaces them during a cache's
        # lifetime.
        l1 = hierarchy.l1ds[core_id]
        self._l1_probe = (l1._sets, l1.num_sets, l1._line_shift,
                          l1.hit_latency, l1._kind_stats[KIND_METADATA])

    def plan_info(self, page: int) -> Optional[tuple]:
        """``(flat, staged, translation)`` for ``page`` from one table
        descent (see :meth:`PageTable.walk_info_decorated` for the plan
        shapes), or None when the page is unmapped.

        Resolved afresh on every walk: walks revisit too few pages for
        a per-page plan cache to pay for the memory it holds.  Carrying
        the translation here spares the MMU a second table descent per
        walk.
        """
        return self.table.walk_info_decorated(page, self._level_info)

    def walk_from_plan(self, now: float, flat: Optional[tuple],
                       staged: Optional[tuple]) -> float:
        """Execute a resolved walk plan at cycle ``now``.

        Exactly one of ``flat``/``staged`` is a tuple (see
        :meth:`PageTable.walk_info_decorated`).
        """
        stats = self.stats
        stats.walks += 1
        if flat is None:
            return self._walk_staged(now, staged)

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
            for _, _, pwc, key in flat:
                index += 1
                if pwc is not None and key is not None:
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
        for pte_paddr, bypass_l1, _, _ in (flat[start:] if start
                                           else flat):
            if not bypass_l1:
                line = pte_paddr >> l1_shift
                cache_set = l1_sets[line % l1_num_sets]
                if line in cache_set:
                    l1_meta_stats.hits += 1
                    cache_set[line] = cache_set.pop(line)
                    clock += l1_latency
                    continue
            clock += hierarchy.access_fast(
                clock, pte_paddr, KIND_METADATA, 0, self.core_id,
                bypass_l1)

        stats.memory_accesses += len(flat) - start
        return clock - now

    def _walk_staged(self, now: float, staged: tuple) -> float:
        """Staged-plan walk (parallel probes, e.g. elastic-cuckoo
        ways): each stage costs its slowest step, and no step probes a
        PWC.  ``stats.walks`` was already counted by the caller."""
        accesses = 0
        clock = now
        hierarchy = self.hierarchy
        core_id = self.core_id
        for stage in staged:
            stage_latency = 0.0
            for step in stage:
                access_latency = hierarchy.access_fast(
                    clock, step[0], KIND_METADATA, 0, core_id, step[1])
                if access_latency > stage_latency:
                    stage_latency = access_latency
                accesses += 1
            clock += stage_latency

        self.stats.memory_accesses += accesses
        return clock - now
