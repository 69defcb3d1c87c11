"""Set-associative LRU cache model with data/metadata attribution.

The cache tracks, per line, whether it holds normal data or page-table
metadata.  This is what lets the simulator measure the paper's key
motivation numbers: the L1 miss rate of metadata (Fig. 7, ~98 %) and the
*pollution* effect — data lines evicted by metadata fills — that raises
the normal-data miss rate from its ideal value.

Hot-path design: each set is an insertion-ordered dict (oldest first,
so LRU is a pop-and-reinsert on hit and the first key on eviction)
mapping a line tag to a packed int (``kind_index << 1 | dirty``).
:meth:`Cache.access_fast` takes plain positional arguments and returns
an int code, with any victim left in :attr:`Cache.evict_tag` /
:attr:`Cache.evict_kind`, so a cache access allocates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.mem.request import RequestKind
from repro.sim.stats import HitMissStats

#: Return codes of :meth:`Cache.access_fast`.
HIT = 0
MISS = 1
MISS_CLEAN_EVICT = 2
MISS_DIRTY_EVICT = 3


@dataclass(slots=True)
class CacheStats:
    """Per-kind hit/miss plus pollution accounting."""

    data: HitMissStats = field(default_factory=HitMissStats)
    metadata: HitMissStats = field(default_factory=HitMissStats)
    instruction: HitMissStats = field(default_factory=HitMissStats)
    # Pollution: data lines evicted by metadata fills.
    data_evicted_by_metadata: int = 0
    writebacks: int = 0

    def for_kind(self, kind: RequestKind) -> HitMissStats:
        if kind is RequestKind.DATA:
            return self.data
        if kind is RequestKind.METADATA:
            return self.metadata
        return self.instruction


class Cache:
    """A single set-associative, write-back, allocate-on-miss LRU cache.

    Args:
        name: label used in aggregated statistics ('L1D', 'L2', ...).
        size_bytes: total capacity.
        associativity: ways per set.
        hit_latency: cycles charged for a lookup that hits (a miss also
            pays this lookup latency before descending, as in Sniper's
            cache model).
        line_size: bytes per line; Table I uses 64 B throughout.
    """

    __slots__ = ("name", "size_bytes", "associativity", "hit_latency",
                 "line_size", "num_sets", "stats", "_sets",
                 "_line_shift", "_kind_stats", "evict_tag", "evict_kind")

    def __init__(self, name: str, size_bytes: int, associativity: int,
                 hit_latency: int, line_size: int = 64):
        if size_bytes % (line_size * associativity) != 0:
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by "
                f"line_size*associativity = {line_size * associativity}"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.hit_latency = hit_latency
        self.line_size = line_size
        self.num_sets = size_bytes // (line_size * associativity)
        self.stats = CacheStats()
        # The per-kind stat objects are bound once and indexed by kind
        # code on the fast path; nothing replaces them during a cache's
        # lifetime.
        self._kind_stats = (self.stats.data, self.stats.metadata,
                            self.stats.instruction)
        # tag -> packed line state: (kind_index << 1) | dirty, oldest
        # (least recently used) first.
        self._sets: List[Dict[int, int]] = [
            {} for _ in range(self.num_sets)
        ]
        self._line_shift = line_size.bit_length() - 1
        # Victim details of the most recent access_fast that returned
        # MISS_CLEAN_EVICT or MISS_DIRTY_EVICT (valid until next fill).
        self.evict_tag = 0
        self.evict_kind = 0

    def access_fast(self, paddr: int, kind: int, is_write: int) -> int:
        """Look up ``paddr``; on miss, allocate the line.

        ``kind`` is a kind code (:data:`repro.mem.request.KIND_DATA`
        ...), ``is_write`` is 0/1.  Returns :data:`HIT`, :data:`MISS`,
        :data:`MISS_CLEAN_EVICT` or :data:`MISS_DIRTY_EVICT`; for the
        two eviction codes the victim is described by
        :attr:`evict_tag` (its line number) / :attr:`evict_kind`.
        """
        line = paddr >> self._line_shift
        cache_set = self._sets[line % self.num_sets]
        resident = cache_set.get(line)
        kind_stats = self._kind_stats[kind]
        if resident is not None:
            kind_stats.hits += 1
            # LRU refresh + dirty update in one dict round-trip.
            cache_set[line] = cache_set.pop(line) | is_write
            return HIT

        kind_stats.misses += 1
        if len(cache_set) < self.associativity:
            cache_set[line] = (kind << 1) | is_write
            return MISS

        victim_tag = next(iter(cache_set))
        packed = cache_set.pop(victim_tag)
        victim_kind = packed >> 1
        dirty = packed & 1
        if dirty:
            self.stats.writebacks += 1
        if kind == 1 and victim_kind == 0:  # METADATA evicting DATA
            self.stats.data_evicted_by_metadata += 1
        cache_set[line] = (kind << 1) | is_write
        self.evict_tag = victim_tag
        self.evict_kind = victim_kind
        return MISS_DIRTY_EVICT if dirty else MISS_CLEAN_EVICT
