"""DRAM timing model: channels, banks, row buffers, queueing.

This is the substrate that produces the paper's multi-core behaviour.
Each bank tracks when it next becomes free and which row is open, so a
burst of page-walk traffic from many NDP cores queues up behind busy
banks and PTW latency climbs with core count (Fig. 6a), while the CPU
system — whose walks mostly hit in its L2/L3 — barely notices.

Timings are expressed in *core cycles* at the 2.6 GHz clock of Table I.
Two presets are provided: DDR4-2400 for the host CPU and HBM2 for the
3D-stacked NDP memory (more channels, lower latency — JESD235).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.mem.request import KIND_BY_INDEX, RequestKind
from repro.sim.stats import LatencyStats, ratio


@dataclass(frozen=True)
class DramTiming:
    """Timing/geometry parameters for one DRAM device.

    Attributes:
        name: preset label.
        channels: independent channels (line-interleaved).
        banks_per_channel: banks per channel.
        row_bytes: row-buffer size.
        row_hit_cycles: CAS-limited access into an open row.
        row_miss_cycles: precharge + activate + CAS.
        burst_cycles: bank occupancy for a row-buffer hit (data transfer).
        row_cycle_cycles: bank occupancy for a row-buffer miss (tRC: the
            bank is unusable for the whole activate..precharge cycle).
            This term — not raw latency — is what makes banks saturate
            under many-core page-walk traffic and reproduces Fig. 6.
    """

    name: str
    channels: int
    banks_per_channel: int
    row_bytes: int
    row_hit_cycles: int
    row_miss_cycles: int
    burst_cycles: int
    row_cycle_cycles: int


# 2 channels of DDR4-2400 behind the CPU's LLC.  ~23 ns CAS-limited and
# ~45 ns bank-miss latencies at 2.6 GHz; tRC ~46 ns.
DDR4_2400 = DramTiming(
    name="DDR4-2400",
    channels=2,
    banks_per_channel=16,
    row_bytes=8192,
    row_hit_cycles=60,
    row_miss_cycles=117,
    burst_cycles=14,
    row_cycle_cycles=120,
)

# HBM2 stack under the NDP logic layer.  HBM's advantage over DDR4 is
# interface width, *not* core latency: the DRAM arrays share the same
# technology, so tCL/tRC in core cycles are close to DDR4's.  The
# channel/bank numbers model the parallelism *visible to one NDP
# cluster* — cores in a logic-layer partition reach the banks of their
# local vault group, not the whole stack — which is what makes random,
# row-missing walk traffic from many NDP cores queue on banks and
# reproduces the paper's rising PTW latency with core count (Fig. 6).
HBM2 = DramTiming(
    name="HBM2",
    channels=2,
    banks_per_channel=8,
    row_bytes=2048,
    row_hit_cycles=52,
    row_miss_cycles=110,
    burst_cycles=4,
    row_cycle_cycles=112,
)


class DramStats:
    """Aggregate DRAM statistics, split by request kind.

    Per-kind access counters live in a plain list indexed by kind code
    (enum hashing is measurable on the per-access path); the
    :attr:`accesses_by_kind` mapping view is materialized on read.
    """

    __slots__ = ("kind_counts", "writes", "row_hits", "row_misses",
                 "queue_delay")

    def __init__(self):
        self.kind_counts: List[int] = [0] * len(KIND_BY_INDEX)
        self.writes = 0
        self.row_hits = 0
        self.row_misses = 0
        self.queue_delay = LatencyStats()

    @property
    def accesses_by_kind(self) -> Dict[RequestKind, int]:
        return {kind: self.kind_counts[index]
                for index, kind in enumerate(KIND_BY_INDEX)}

    @property
    def accesses(self) -> int:
        return sum(self.kind_counts)

    @property
    def row_hit_rate(self) -> float:
        return ratio(self.row_hits, self.row_hits + self.row_misses)

    def reset(self) -> None:
        self.kind_counts = [0] * len(KIND_BY_INDEX)
        self.writes = 0
        self.row_hits = 0
        self.row_misses = 0
        self.queue_delay.reset()

    def merge(self, other: "DramStats") -> None:
        """Fold another device's counters in (per-node NUMA DRAMs are
        reported as one machine-wide distribution)."""
        for index, count in enumerate(other.kind_counts):
            self.kind_counts[index] += count
        self.writes += other.writes
        self.row_hits += other.row_hits
        self.row_misses += other.row_misses
        self.queue_delay.merge(other.queue_delay)


class _Bank:
    __slots__ = ("free_at", "open_row")

    def __init__(self):
        self.free_at = 0.0
        self.open_row = -1


class DramModel:
    """Bank-queueing DRAM model.

    ``access_fast`` is the timing entry point: given the cycle at which
    a request reaches the memory controller, it returns the total
    latency (queueing + service) and advances the target bank's busy
    window.  ``drain_write_fast`` accounts a posted write-back.
    """

    LINE_SIZE = 64

    __slots__ = ("timing", "stats", "_banks", "_lines_per_row",
                 "_pow2", "_line_shift", "_ch_mask", "_ch_shift",
                 "_row_shift", "_bank_mask", "_bank_shift", "_hot")

    def __init__(self, timing: DramTiming):
        self.timing = timing
        self.stats = DramStats()
        self._banks: List[_Bank] = [
            _Bank()
            for _ in range(timing.channels * timing.banks_per_channel)
        ]
        self._lines_per_row = timing.row_bytes // self.LINE_SIZE
        # Every shipped geometry is power-of-two; precompute shift/mask
        # forms of the _decode arithmetic for the hot path (identical
        # results, cheaper ops).  Non-power-of-two geometries fall back
        # to the divmod path.
        self._pow2 = all(
            value & (value - 1) == 0 and value > 0
            for value in (self.LINE_SIZE, timing.channels,
                          timing.banks_per_channel, self._lines_per_row))
        if self._pow2:
            self._line_shift = self.LINE_SIZE.bit_length() - 1
            self._ch_mask = timing.channels - 1
            self._ch_shift = timing.channels.bit_length() - 1
            self._row_shift = self._lines_per_row.bit_length() - 1
            self._bank_mask = timing.banks_per_channel - 1
            self._bank_shift = timing.banks_per_channel.bit_length() - 1
        else:
            self._line_shift = self._ch_mask = self._ch_shift = 0
            self._row_shift = self._bank_mask = self._bank_shift = 0
        # One-tuple unpack replaces ~10 attribute loads on the
        # per-access path; every value is immutable for the device's
        # lifetime.
        self._hot = (self._pow2, self._line_shift, self._ch_mask,
                     self._ch_shift, self._row_shift, self._bank_mask,
                     self._bank_shift, self._banks,
                     timing.row_hit_cycles, timing.burst_cycles,
                     timing.row_miss_cycles, timing.row_cycle_cycles)

    def _decode(self, paddr: int):
        """Map a physical address to (bank object, row number).

        Lines interleave across channels, then fill a row's columns
        before moving to the next bank (open-page friendly: sequential
        streams get row-buffer hits).  The bank index is permuted with
        row bits (permutation-based page interleaving, as in real
        controllers), which prevents aligned hot addresses — page-table
        roots, search-tree midpoints — from all landing in one bank.
        """
        line = paddr // self.LINE_SIZE
        channel = line % self.timing.channels
        rest = line // self.timing.channels
        banks = self.timing.banks_per_channel
        within = rest // self._lines_per_row
        bank_raw = within % banks
        row = within // banks
        bank_idx = (bank_raw ^ (row % banks) ^ ((row >> 5) % banks)) % banks
        bank = self._banks[channel * banks + bank_idx]
        return bank, row

    def access_fast(self, now: float, paddr: int, kind: int,
                    is_write: int) -> float:
        """Service a request arriving at cycle ``now``; return latency.

        Allocation-free entry point: ``kind`` is a kind code, and the
        decode / latency-distribution updates are inlined (no method
        dispatch on the per-access path).
        """
        # Inline _decode (hot): line -> channel, then permuted bank.
        (pow2, line_shift, ch_mask, ch_shift, row_shift, bank_mask,
         bank_shift, banks, row_hit_cycles, burst_cycles,
         row_miss_cycles, row_cycle_cycles) = self._hot
        if pow2:
            line = paddr >> line_shift
            channel = line & ch_mask
            within = (line >> ch_shift) >> row_shift
            row = within >> bank_shift
            bank_idx = ((within ^ row ^ (row >> 5)) & bank_mask)
            bank = banks[(channel << bank_shift) + bank_idx]
        else:
            bank, row = self._decode(paddr)

        start = bank.free_at if bank.free_at > now else now
        queue_delay = start - now

        stats = self.stats
        if bank.open_row == row:
            service = row_hit_cycles
            occupancy = burst_cycles
            stats.row_hits += 1
        else:
            service = row_miss_cycles
            occupancy = row_cycle_cycles
            stats.row_misses += 1
            bank.open_row = row

        bank.free_at = start + occupancy
        stats.kind_counts[kind] += 1
        if is_write:
            stats.writes += 1
        queue_stats = stats.queue_delay
        queue_stats.total += queue_delay
        queue_stats.count += 1
        if queue_delay > queue_stats.maximum:
            queue_stats.maximum = queue_delay
        return queue_delay + service

    def drain_write_fast(self, now: float, paddr: int, kind: int) -> None:
        """Account a write-back: occupies the bank but nobody waits on it."""
        if self._pow2:
            line = paddr >> self._line_shift
            channel = line & self._ch_mask
            within = (line >> self._ch_shift) >> self._row_shift
            row = within >> self._bank_shift
            bank_idx = ((within ^ row ^ (row >> 5)) & self._bank_mask)
            bank = self._banks[(channel << self._bank_shift) + bank_idx]
        else:
            bank, row = self._decode(paddr)
        start = bank.free_at if bank.free_at > now else now
        if bank.open_row != row:
            bank.open_row = row
            self.stats.row_misses += 1
            occupancy = self.timing.row_cycle_cycles
        else:
            self.stats.row_hits += 1
            occupancy = self.timing.burst_cycles
        bank.free_at = start + occupancy
        self.stats.kind_counts[kind] += 1
        self.stats.writes += 1

    def reset_state(self) -> None:
        """Clear bank occupancy and open rows (statistics preserved)."""
        for bank in self._banks:
            bank.free_at = 0.0
            bank.open_row = -1
