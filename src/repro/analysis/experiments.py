"""High-level experiment drivers: one function per paper table/figure.

Each function *declares* the config grid a figure needs, hands the grid
to a :class:`~repro.service.SweepService`, and assembles the returned
results into plain data (dicts keyed by workload/mechanism); the
``benchmarks/`` figure benches print the rows and assert the paper's
shape against them.  All drivers accept ``workloads``,
``refs_per_core``, ``scale`` and ``seed`` so tests can shrink them and
the benches can run them at full sweep size, plus ``runner`` — the
:class:`~repro.service.SweepService` that parallelizes and caches the
sweep (``python -m repro figure fig12 --jobs 4 --cache-dir DIR``).
Results are bit-identical whatever the backend: cells are independent
and the simulator is deterministic across processes.

A keep-going service (``SweepPolicy(strict=False)``) returns ``None``
for cells it had to quarantine (see the failure manifest in
``runner.last_stats``); every driver here renders those as explicit
NaN holes in its tables instead of crashing, so a 30-cell figure with
one faulty cell still reports the other 29.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import average_speedups, mean, speedup_table
from repro.core.mechanisms import PAPER_MECHANISMS
from repro.sim.config import (
    DEFAULT_SCALE,
    PLACEMENT_POLICIES,
    NumaParams,
    SystemConfig,
    cpu_config,
    ndp_config,
)
from repro.sim.runner import RunResult
from repro.vm.occupancy import occupancy_report
from repro.workloads.registry import ALL_WORKLOADS, make_workload

DEFAULT_REFS = 30_000


def _config(system: str, workload: str, mechanism: str, num_cores: int,
            refs_per_core: int, scale: float, seed: int) -> SystemConfig:
    factory = ndp_config if system == "ndp" else cpu_config
    return factory(workload=workload, mechanism=mechanism,
                   num_cores=num_cores, refs_per_core=refs_per_core,
                   scale=scale, seed=seed)


def _sweep(configs: Sequence[SystemConfig],
           runner) -> List[Optional[RunResult]]:
    """Run a declared grid through a :class:`~repro.service
    .SweepService`; serial in-process when no runner is given."""
    if runner is None:
        from repro.service import SweepService
        runner = SweepService(backend="serial")
    return runner.run_grid(configs).results


def _metric(result: Optional[RunResult], attr: str) -> float:
    """Metric of one cell; NaN for a quarantined (None) cell."""
    if result is None:
        return float("nan")
    return getattr(result, attr)


def _cpr(result: Optional[RunResult]) -> float:
    """Cycles per reference; NaN for a quarantined cell."""
    if result is None:
        return float("nan")
    return result.cycles / max(1, result.references)


# -- Motivation: Figs. 4-6 ----------------------------------------------------

def ptw_latency_comparison(workloads: Sequence[str] = ALL_WORKLOADS,
                           num_cores: int = 4,
                           refs_per_core: int = DEFAULT_REFS,
                           scale: float = DEFAULT_SCALE,
                           seed: int = 42,
                           runner=None
                           ) -> Dict[str, Dict[str, float]]:
    """Fig. 4: average radix PTW latency, NDP vs CPU, per workload."""
    grid = [(workload, system)
            for workload in workloads for system in ("ndp", "cpu")]
    results = _sweep([_config(system, workload, "radix", num_cores,
                              refs_per_core, scale, seed)
                      for workload, system in grid], runner)
    table: Dict[str, Dict[str, float]] = {}
    for (workload, system), result in zip(grid, results):
        row = table.setdefault(workload, {})
        row[system] = _metric(result, "ptw_latency_mean")
        row[f"{system}_max"] = _metric(result, "ptw_latency_max")
    for row in table.values():
        row["increase"] = (row["ndp"] / row["cpu"] - 1.0
                           if row["cpu"] else 0.0)
    return table


def translation_overhead_comparison(
        workloads: Sequence[str] = ALL_WORKLOADS,
        num_cores: int = 4,
        refs_per_core: int = DEFAULT_REFS,
        scale: float = DEFAULT_SCALE,
        seed: int = 42,
        runner=None
        ) -> Dict[str, Dict[str, float]]:
    """Fig. 5: fraction of runtime spent translating, NDP vs CPU."""
    grid = [(workload, system)
            for workload in workloads for system in ("ndp", "cpu")]
    results = _sweep([_config(system, workload, "radix", num_cores,
                              refs_per_core, scale, seed)
                      for workload, system in grid], runner)
    table: Dict[str, Dict[str, float]] = {}
    for (workload, system), result in zip(grid, results):
        table.setdefault(workload, {})[system] = \
            _metric(result, "translation_fraction")
    return table


def core_scaling(workloads: Sequence[str] = ALL_WORKLOADS,
                 core_counts: Sequence[int] = (1, 4, 8),
                 refs_per_core: int = DEFAULT_REFS,
                 scale: float = DEFAULT_SCALE,
                 seed: int = 42,
                 runner=None
                 ) -> Dict[str, Dict[int, Dict[str, float]]]:
    """Fig. 6: mean PTW latency and overhead fraction vs core count."""
    grid = [(system, cores, workload)
            for system in ("ndp", "cpu")
            for cores in core_counts
            for workload in workloads]
    results = _sweep([_config(system, workload, "radix", cores,
                              refs_per_core, scale, seed)
                      for system, cores, workload in grid], runner)
    latencies: Dict[Tuple[str, int], List[float]] = {}
    overheads: Dict[Tuple[str, int], List[float]] = {}
    for (system, cores, _workload), result in zip(grid, results):
        if result is None:       # quarantined: drop from the average
            continue
        latencies.setdefault((system, cores), []).append(
            result.ptw_latency_mean)
        overheads.setdefault((system, cores), []).append(
            result.translation_fraction)
    out: Dict[str, Dict[int, Dict[str, float]]] = {
        "ndp": {}, "cpu": {}}
    for system in ("ndp", "cpu"):
        for cores in core_counts:
            out[system][cores] = {
                "ptw_latency": mean(latencies.get((system, cores), [])),
                "overhead": mean(overheads.get((system, cores), [])),
            }
    return out


# -- Key observations: Figs. 7, 8 and Section IV-A scalars --------------------

@dataclass
class MissRateRow:
    """Fig. 7 bars for one workload (4-core NDP)."""

    data_ideal: float      # normal-data L1 miss, no translation traffic
    data_actual: float     # normal-data L1 miss with radix PTEs cached
    metadata: float        # PTE L1 miss rate
    tlb_miss_rate: float
    metadata_mem_fraction: float
    pollution_evictions: int


def l1_miss_breakdown(workloads: Sequence[str] = ALL_WORKLOADS,
                      num_cores: int = 4,
                      refs_per_core: int = DEFAULT_REFS,
                      scale: float = DEFAULT_SCALE,
                      seed: int = 42,
                      runner=None
                      ) -> Dict[str, MissRateRow]:
    """Fig. 7 plus the Section IV-A scalar claims."""
    grid = [(workload, mechanism)
            for workload in workloads
            for mechanism in ("radix", "ideal")]
    results = _sweep([_config("ndp", workload, mechanism, num_cores,
                              refs_per_core, scale, seed)
                      for workload, mechanism in grid], runner)
    by_cell = {cell: result for cell, result in zip(grid, results)}
    table = {}
    for workload in workloads:
        actual = by_cell[(workload, "radix")]
        ideal = by_cell[(workload, "ideal")]
        if actual is None or ideal is None:
            nan = float("nan")
            table[workload] = MissRateRow(nan, nan, nan, nan, nan, 0)
            continue
        table[workload] = MissRateRow(
            data_ideal=ideal.l1_data_miss_rate,
            data_actual=actual.l1_data_miss_rate,
            metadata=actual.l1_metadata_miss_rate,
            tlb_miss_rate=actual.tlb_miss_rate,
            metadata_mem_fraction=actual.metadata_mem_fraction,
            pollution_evictions=actual.data_evicted_by_metadata,
        )
    return table


def pte_dram_amplification(workload: str = "rnd", num_cores: int = 4,
                           refs_per_core: int = DEFAULT_REFS,
                           scale: float = DEFAULT_SCALE,
                           seed: int = 42,
                           runner=None
                           ) -> float:
    """Section IV-A: NDP-vs-CPU ratio of PTE accesses reaching DRAM."""
    ndp, cpu = _sweep(
        [_config(system, workload, "radix", num_cores, refs_per_core,
                 scale, seed)
         for system in ("ndp", "cpu")], runner)
    if ndp is None or cpu is None:
        return float("nan")
    cpu_pte = max(1, cpu.dram_accesses_by_kind.get("metadata", 0))
    return ndp.dram_accesses_by_kind.get("metadata", 0) / cpu_pte


def occupancy_study(workloads: Sequence[str] = ALL_WORKLOADS,
                    seed: int = 42) -> Dict[str, Dict[str, float]]:
    """Fig. 8: page-table occupancy at the paper's full dataset scale.

    Occupancy is structural, so it is computed analytically from each
    workload's full-scale mapped ranges (see repro.vm.occupancy); tests
    verify the analytic form against live tables at small scale.
    """
    table = {}
    for workload in workloads:
        ranges = make_workload(workload, scale=1.0,
                               seed=seed).page_ranges()
        table[workload] = occupancy_report(ranges)
    return table


def pwc_hit_rates(workloads: Sequence[str] = ALL_WORKLOADS,
                  num_cores: int = 4, mechanism: str = "radix",
                  refs_per_core: int = DEFAULT_REFS,
                  scale: float = DEFAULT_SCALE,
                  seed: int = 42,
                  runner=None
                  ) -> Dict[str, float]:
    """Section V-C: PWC hit rate per level, averaged over workloads."""
    results = _sweep([_config("ndp", workload, mechanism, num_cores,
                              refs_per_core, scale, seed)
                      for workload in workloads], runner)
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for result in results:
        if result is None:       # quarantined: drop from the average
            continue
        for level, rate in result.pwc_hit_rates.items():
            sums[level] = sums.get(level, 0.0) + rate
            counts[level] = counts.get(level, 0) + 1
    return {level: sums[level] / counts[level] for level in sums}


# -- Main results: Figs. 12-14 ------------------------------------------------

def speedup_experiment(num_cores: int,
                       workloads: Sequence[str] = ALL_WORKLOADS,
                       mechanisms: Sequence[str] = PAPER_MECHANISMS,
                       system: str = "ndp",
                       refs_per_core: int = DEFAULT_REFS,
                       scale: float = DEFAULT_SCALE,
                       seed: int = 42,
                       runner=None
                       ) -> Tuple[Dict[str, Dict[str, float]],
                                  Dict[str, float],
                                  Dict[str, Dict[str, RunResult]]]:
    """Figs. 12/13/14: per-workload speedups over Radix.

    Returns (speedup table, across-workload averages, raw results).
    """
    grid = [(workload, mechanism)
            for workload in workloads for mechanism in mechanisms]
    results = _sweep([_config(system, workload, mechanism, num_cores,
                              refs_per_core, scale, seed)
                      for workload, mechanism in grid], runner)
    raw: Dict[str, Dict[str, RunResult]] = {}
    for (workload, mechanism), result in zip(grid, results):
        raw.setdefault(workload, {})[mechanism] = result
    table = speedup_table(raw, baseline="radix")
    return table, average_speedups(table), raw


# -- Beyond the paper: multiprogrammed interference ---------------------------

def tenant_interference(workload: str = "xs",
                        mechanisms: Sequence[str] = (
                            "radix", "ech", "hugepage", "ndpage"),
                        tenant_counts: Sequence[int] = (1, 2, 4),
                        num_cores: int = 1,
                        refs_per_core: int = DEFAULT_REFS,
                        scale: float = DEFAULT_SCALE,
                        seed: int = 42,
                        runner=None
                        ) -> Dict[str, Dict[str, float]]:
    """Each mechanism under 1/2/4 co-runners on a shared frame pool.

    The single-address-space figures hide where page-table designs
    differentiate in deployment: multiprogramming.  Every cell runs
    ``tenant_counts[i]`` copies of ``workload`` (distinct deterministic
    streams, private page tables) through the ASID-tagged TLBs and the
    quantum scheduler, and the table reports cycles-per-reference plus
    its degradation relative to the mechanism's own cell at the lowest
    tenant count in the grid (1 by default, whatever the sequence
    order) — so the interference factor isolates co-runner cost from
    baseline mechanism cost — alongside the shootdown and switch
    counts behind it.
    """
    grid = [(mechanism, tenants)
            for mechanism in mechanisms for tenants in tenant_counts]
    results = _sweep([ndp_config(workload=workload, mechanism=mechanism,
                                 num_cores=num_cores, tenants=tenants,
                                 refs_per_core=refs_per_core,
                                 scale=scale, seed=seed)
                      for mechanism, tenants in grid], runner)
    by_cell = {cell: result for cell, result in zip(grid, results)}
    base_tenants = min(tenant_counts)
    table: Dict[str, Dict[str, float]] = {}
    for mechanism in mechanisms:
        row: Dict[str, float] = {}
        base_cpr = _cpr(by_cell[(mechanism, base_tenants)])
        for tenants in tenant_counts:
            result = by_cell[(mechanism, tenants)]
            cpr = _cpr(result)
            row[f"{tenants}t cpr"] = cpr
            row[f"{tenants}t x"] = cpr / base_cpr if base_cpr else 0.0
            row[f"{tenants}t shoot"] = (
                result.extras.get("shootdowns", 0.0)
                if result is not None else float("nan"))
        table[mechanism] = row
    return table


def numa_placement(workload: str = "rnd",
                   mechanisms: Sequence[str] = (
                       "radix", "ech", "hugepage", "ndpage"),
                   node_counts: Sequence[int] = (1, 2, 4),
                   placements: Sequence[str] = PLACEMENT_POLICIES,
                   num_cores: int = 2,
                   refs_per_core: int = DEFAULT_REFS,
                   scale: float = DEFAULT_SCALE,
                   seed: int = 42,
                   runner=None
                   ) -> Dict[str, Dict[str, float]]:
    """Each mechanism x placement policy under 1/2/4 NUMA nodes.

    Every cell splits physical memory into per-node frame pools with
    distance-dependent DRAM latency and runs the placement policy end
    to end (``local`` / ``interleave`` / ``preferred-node`` /
    ``pte-local``).  Rows are ``mechanism/placement``; per node count
    the table reports cycles-per-reference, its degradation relative
    to the same row at the smallest node count (the flat machine when
    1 is in the grid), and the fraction of DRAM reads that paid
    cross-node distance — the knob that separates translation
    mechanisms once page-table pages can land remotely.  Single-node cells are
    placement-independent, collapse to the default flat config (cache
    keys shared with every other figure) and dedup inside the sweep.
    """
    grid = [(mechanism, placement, nodes)
            for mechanism in mechanisms
            for placement in placements
            for nodes in node_counts]
    results = _sweep(
        [ndp_config(workload=workload, mechanism=mechanism,
                    num_cores=num_cores, refs_per_core=refs_per_core,
                    scale=scale, seed=seed,
                    # Single-node cells normalize to the flat default
                    # inside NumaParams, so they dedup across
                    # placements and with every other figure's cells.
                    numa=NumaParams(nodes=nodes, placement=placement))
         for mechanism, placement, nodes in grid], runner)
    by_cell = {cell: result for cell, result in zip(grid, results)}
    base_nodes = min(node_counts)
    table: Dict[str, Dict[str, float]] = {}
    for mechanism in mechanisms:
        for placement in placements:
            row: Dict[str, float] = {}
            base_cpr = _cpr(by_cell[(mechanism, placement,
                                     base_nodes)])
            for nodes in node_counts:
                result = by_cell[(mechanism, placement, nodes)]
                cpr = _cpr(result)
                row[f"{nodes}n cpr"] = cpr
                row[f"{nodes}n x"] = (cpr / base_cpr if base_cpr
                                      else 0.0)
                row[f"{nodes}n rem"] = (
                    result.extras.get("remote_fraction", 0.0)
                    if result is not None else float("nan"))
            table[f"{mechanism}/{placement}"] = row
    return table


def ablation_experiment(num_cores: int = 4,
                        workloads: Sequence[str] = ("bfs", "xs", "rnd"),
                        refs_per_core: int = DEFAULT_REFS,
                        scale: float = DEFAULT_SCALE,
                        seed: int = 42,
                        runner=None
                        ) -> Dict[str, Dict[str, float]]:
    """Decompose NDPage: bypass-only vs flatten-only vs both vs no-PWC,
    plus the counterfactual upper-level (PL3/PL2) flattening."""
    mechanisms = ("radix", "ndpage-bypass-only", "ndpage-flatten-only",
                  "ndpage-nopwc", "ndpage-flatten-upper", "ndpage")
    table, _, _ = speedup_experiment(
        num_cores, workloads=workloads, mechanisms=mechanisms,
        refs_per_core=refs_per_core, scale=scale, seed=seed,
        runner=runner)
    return table
