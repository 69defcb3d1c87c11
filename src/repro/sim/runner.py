"""Experiment runner: build, run, and summarize one simulation.

:func:`run_once` produces a :class:`RunResult` holding every metric the
paper's figures use — cycles and speedups, PTW latency (Figs. 4/6),
translation-overhead fraction (Figs. 5/6), per-kind L1 miss rates
(Fig. 7), PWC hit rates (Section V-C), page-table occupancy (Fig. 8),
DRAM traffic attribution (Section IV-A's 65.8 % / 200.4x claims) and OS
fault behaviour (the Huge Page story in Section VII-B).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.mem.request import RequestKind
from repro.sim.config import SystemConfig
from repro.sim.stats import LatencyStats, ratio
from repro.sim.system import System


@dataclass
class RunResult:
    """Flat summary of one simulation run."""

    config: SystemConfig
    cycles: float
    instructions: int
    references: int
    translation_cycles: float
    fault_cycles: float
    ptw_latency_mean: float
    ptw_latency_max: float
    walks: int
    tlb_miss_rate: float
    l1_data_miss_rate: float
    l1_metadata_miss_rate: float
    metadata_mem_fraction: float
    pte_memory_accesses: int
    pwc_hit_rates: Dict[str, float]
    occupancy: Dict[str, float]
    dram_accesses_by_kind: Dict[str, int]
    dram_row_hit_rate: float
    dram_queue_delay_mean: float
    os_stats: Dict[str, float]
    data_evicted_by_metadata: int
    table_bytes: int
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def translation_fraction(self) -> float:
        """Share of core cycles spent in address translation (Fig. 5)."""
        total = self.cycles * self.config.num_cores
        return ratio(self.translation_cycles, total)

    @property
    def ipc(self) -> float:
        return ratio(self.instructions,
                     self.cycles * self.config.num_cores)

    def speedup_over(self, baseline: "RunResult") -> float:
        """End-to-end speedup of this run relative to ``baseline``."""
        if self.cycles == 0:
            return 0.0
        return baseline.cycles / self.cycles

    def summary(self) -> Dict[str, float]:
        """Compact dict for table printing."""
        return {
            "cycles": self.cycles,
            "ipc": self.ipc,
            "ptw_mean": self.ptw_latency_mean,
            "tlb_miss": self.tlb_miss_rate,
            "trans_frac": self.translation_fraction,
            "l1_data_miss": self.l1_data_miss_rate,
            "l1_meta_miss": self.l1_metadata_miss_rate,
        }


def collect(system: System, cycles: float) -> RunResult:
    """Aggregate statistics from a finished :class:`System`."""
    cores = system.cores
    mmus = system.mmus
    hierarchy = system.hierarchy

    walk_latency = LatencyStats()
    for mmu in mmus:
        walk_latency.merge(mmu.stats.walk_latency)

    translations = sum(m.stats.translations for m in mmus)
    tlb_hits = sum(m.stats.tlb_hits for m in mmus)
    pte_accesses = sum(m.walker.stats.memory_accesses for m in mmus)
    references = sum(c.stats.references for c in cores)

    pwc_hit_rates: Dict[str, float] = {}
    pwc_hits: Dict[str, int] = {}
    pwc_misses: Dict[str, int] = {}
    for pwcs in system.pwc_sets:
        if pwcs is None:
            continue
        for level, cache in pwcs.caches().items():
            pwc_hits[level] = pwc_hits.get(level, 0) + cache.stats.hits
            pwc_misses[level] = (pwc_misses.get(level, 0)
                                 + cache.stats.misses)
    for level in pwc_hits:
        pwc_hit_rates[level] = ratio(
            pwc_hits[level], pwc_hits[level] + pwc_misses[level])

    # Machine-wide DRAM view: the flat machine's single device, or the
    # merged per-node devices of a NUMA machine.
    dram = hierarchy.dram_stats()
    # OS behaviour is the sum over tenant address spaces (a lone
    # process's own stats, types included); occupancy is reported for
    # tenant 0's table (co-runners of one workload are statistically
    # alike), while table_bytes counts every tenant's structures — the
    # real metadata footprint in the shared frame pool.
    os_stats = _merged_os_stats(system.tenants)
    table_bytes = sum(t.page_table.table_bytes() for t in system.tenants)
    occupancy = system.tenants[0].page_table.occupancy()

    extras: Dict[str, float] = {}
    sched = system.scheduler_stats
    if sched is not None:
        extras = {
            "tenants": float(system.config.tenants),
            "context_switches": float(sched.context_switches),
            "preserved_switches": float(sched.preserved_switches),
            "flush_switches": float(sched.flush_switches),
            "switch_cycles": sched.switch_cycles,
            "shootdowns": float(sched.shootdowns),
            "shootdown_cycles": sched.shootdown_cycles,
            "cross_tenant_reclaims": float(sched.cross_tenant_reclaims),
            "frame_pressure": system.allocator.pressure,
        }
    topology = system.topology
    if topology is not None:
        hs = hierarchy.stats
        extras["numa_nodes"] = float(topology.nodes)
        extras["remote_dram_reads"] = float(hs.remote_reads)
        extras["remote_fraction"] = ratio(hs.remote_reads,
                                          hs.dram_reads)
        extras["remote_penalty_cycles"] = hs.remote_penalty_cycles
        extras["numa_spills"] = float(system.allocator.total_spills)

    return RunResult(
        config=system.config,
        cycles=cycles,
        instructions=sum(c.stats.instructions for c in cores),
        references=references,
        translation_cycles=sum(
            c.stats.translation_cycles for c in cores),
        fault_cycles=sum(c.stats.fault_cycles for c in cores),
        ptw_latency_mean=walk_latency.mean,
        ptw_latency_max=walk_latency.maximum,
        walks=walk_latency.count,
        tlb_miss_rate=ratio(translations - tlb_hits, translations),
        l1_data_miss_rate=hierarchy.l1_miss_rate(RequestKind.DATA),
        l1_metadata_miss_rate=hierarchy.l1_miss_rate(
            RequestKind.METADATA),
        metadata_mem_fraction=ratio(
            pte_accesses, pte_accesses + references),
        pte_memory_accesses=pte_accesses,
        pwc_hit_rates=pwc_hit_rates,
        occupancy=occupancy,
        dram_accesses_by_kind={
            kind.value: count
            for kind, count in dram.accesses_by_kind.items()
        },
        dram_row_hit_rate=dram.row_hit_rate,
        dram_queue_delay_mean=dram.queue_delay.mean,
        os_stats={
            "minor_faults": os_stats.minor_faults,
            "huge_faults": os_stats.huge_faults,
            "huge_fallbacks": os_stats.huge_fallbacks,
            "compactions": os_stats.compactions,
            "reclaims": os_stats.reclaims,
            "fault_cycles": os_stats.fault_cycles,
        },
        data_evicted_by_metadata=sum(
            c.stats.data_evicted_by_metadata for c in hierarchy.l1ds),
        table_bytes=table_bytes,
        extras=extras,
    )


def _merged_os_stats(tenants):
    """Field-wise sum of every tenant's :class:`OsStats`.

    Iterates the dataclass fields so counters added to OsStats later
    are aggregated automatically instead of silently dropped.
    """
    merged = type(tenants[0].os.stats)()
    names = [f.name for f in dataclasses.fields(merged)]
    for tenant in tenants:
        stats = tenant.os.stats
        for name in names:
            setattr(merged, name,
                    getattr(merged, name) + getattr(stats, name))
    return merged


def run_once(config: SystemConfig) -> RunResult:
    """Build a system from ``config``, run it, and collect metrics."""
    system = System(config)
    cycles = system.run()
    return collect(system, cycles)


def run_mechanisms(config: SystemConfig,
                   mechanisms: Iterable[str],
                   baseline: Optional[str] = "radix"
                   ) -> Dict[str, RunResult]:
    """Run ``config`` once per mechanism (same workload/cores/seed).

    Returns results keyed by mechanism; callers derive speedups with
    :meth:`RunResult.speedup_over` against ``results[baseline]``.
    """
    results = {}
    for mechanism in mechanisms:
        results[mechanism] = run_once(config.with_mechanism(mechanism))
    if baseline is not None and baseline not in results:
        results[baseline] = run_once(config.with_mechanism(baseline))
    return results
