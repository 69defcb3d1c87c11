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

    Each access is counted once, in ``kind_counts`` (a plain list
    indexed by kind code: enum hashing is measurable on the per-access
    path).  A posted write-back is also counted in ``writebacks``, a
    demand write in ``demand_writes`` and an open-row access in
    ``row_hits``; row misses and the queue-delay sample count follow
    from those and are read-only.  Queue delay is summed over
    demand accesses, and only a request that waited changes the sum or
    the maximum.
    """

    __slots__ = ("kind_counts", "demand_writes", "writebacks", "row_hits",
                 "queue_total", "queue_max")

    def __init__(self):
        self.kind_counts: List[int] = [0] * len(KIND_BY_INDEX)
        self.demand_writes = 0
        self.writebacks = 0
        self.row_hits = 0
        self.queue_total = 0.0
        self.queue_max = 0.0

    @property
    def accesses_by_kind(self) -> Dict[RequestKind, int]:
        return {kind: self.kind_counts[index]
                for index, kind in enumerate(KIND_BY_INDEX)}

    @property
    def accesses(self) -> int:
        return sum(self.kind_counts)

    @property
    def demand_accesses(self) -> int:
        """Accesses a requester waited on (all but posted write-backs)."""
        return self.accesses - self.writebacks

    @property
    def row_misses(self) -> int:
        return self.accesses - self.row_hits

    @property
    def row_hit_rate(self) -> float:
        return ratio(self.row_hits, self.accesses)

    @property
    def queue_delay(self) -> LatencyStats:
        """Queueing delay distribution over demand accesses."""
        return LatencyStats(self.queue_total, self.demand_accesses,
                            self.queue_max)

    def merge(self, other: "DramStats") -> None:
        """Fold another device's counters in (per-node NUMA DRAMs are
        reported as one machine-wide distribution)."""
        for index, count in enumerate(other.kind_counts):
            self.kind_counts[index] += count
        self.demand_writes += other.demand_writes
        self.writebacks += other.writebacks
        self.row_hits += other.row_hits
        self.queue_total += other.queue_total
        if other.queue_max > self.queue_max:
            self.queue_max = other.queue_max


class _Bank:
    __slots__ = ("free_at", "open_row")

    def __init__(self):
        self.free_at = 0.0
        self.open_row = -1


def _is_pow2(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


class DramModel:
    """Bank-queueing DRAM model.

    ``access_fast`` is the timing entry point: given the cycle at which
    a request reaches the memory controller, it returns the total
    latency (queueing + service) and advances the target bank's busy
    window.  ``drain_write_fast`` accounts a posted write-back.

    Address decode: lines interleave across channels, then fill a
    row's columns before moving to the next bank (open-page friendly:
    sequential streams get row-buffer hits).  The bank index is
    permuted with row bits (permutation-based page interleaving, as in
    real controllers), which keeps aligned hot addresses — page-table
    roots, search-tree midpoints — from all landing in one bank.
    Every geometry is a power of two, so the decode is shifts and
    masks.
    """

    LINE_SIZE = 64

    __slots__ = ("timing", "stats", "_banks", "_hot")

    def __init__(self, timing: DramTiming):
        lines_per_row = timing.row_bytes // self.LINE_SIZE
        if not all(_is_pow2(value) for value in (
                timing.channels, timing.banks_per_channel, lines_per_row)):
            raise ValueError(
                f"{timing.name}: channels ({timing.channels}), banks per "
                f"channel ({timing.banks_per_channel}) and lines per row "
                f"({lines_per_row}) must be powers of two")
        self.timing = timing
        self.stats = DramStats()
        self._banks: List[_Bank] = [
            _Bank()
            for _ in range(timing.channels * timing.banks_per_channel)
        ]
        line_shift = self.LINE_SIZE.bit_length() - 1
        ch_shift = timing.channels.bit_length() - 1
        # One shift takes a paddr to its bank-and-row bits.
        within_shift = line_shift + ch_shift + lines_per_row.bit_length() - 1
        # One-tuple unpack replaces ~10 attribute loads on the
        # per-access path; every value is immutable for the device's
        # lifetime.
        self._hot = (line_shift, timing.channels - 1, within_shift,
                     timing.banks_per_channel.bit_length() - 1,
                     timing.banks_per_channel - 1, self._banks,
                     timing.row_hit_cycles, timing.burst_cycles,
                     timing.row_miss_cycles, timing.row_cycle_cycles)

    def access_fast(self, now: float, paddr: int, kind: int,
                    is_write: int) -> float:
        """Service a request arriving at cycle ``now``; return latency.

        Allocation-free entry point: ``kind`` is a kind code, and the
        decode / statistics updates are inlined (no method dispatch on
        the per-access path).
        """
        (line_shift, ch_mask, within_shift, bank_shift, bank_mask, banks,
         row_hit_cycles, burst_cycles, row_miss_cycles,
         row_cycle_cycles) = self._hot
        within = paddr >> within_shift
        row = within >> bank_shift
        bank = banks[(((paddr >> line_shift) & ch_mask) << bank_shift)
                     + ((within ^ row ^ (row >> 5)) & bank_mask)]

        stats = self.stats
        start = bank.free_at
        if start > now:
            queue_delay = start - now
            stats.queue_total += queue_delay
            if queue_delay > stats.queue_max:
                stats.queue_max = queue_delay
        else:
            start = now
            queue_delay = 0.0

        if bank.open_row == row:
            stats.row_hits += 1
            bank.free_at = start + burst_cycles
            service = row_hit_cycles
        else:
            bank.open_row = row
            bank.free_at = start + row_cycle_cycles
            service = row_miss_cycles
        stats.kind_counts[kind] += 1
        if is_write:
            stats.demand_writes += 1
        return queue_delay + service

    def drain_write_fast(self, now: float, paddr: int, kind: int) -> None:
        """Account a write-back: occupies the bank but nobody waits on it."""
        (line_shift, ch_mask, within_shift, bank_shift, bank_mask, banks,
         _, burst_cycles, _, row_cycle_cycles) = self._hot
        within = paddr >> within_shift
        row = within >> bank_shift
        bank = banks[(((paddr >> line_shift) & ch_mask) << bank_shift)
                     + ((within ^ row ^ (row >> 5)) & bank_mask)]
        start = bank.free_at if bank.free_at > now else now
        stats = self.stats
        if bank.open_row == row:
            stats.row_hits += 1
            bank.free_at = start + burst_cycles
        else:
            bank.open_row = row
            bank.free_at = start + row_cycle_cycles
        stats.kind_counts[kind] += 1
        stats.writebacks += 1
