"""Output checks: a cell's work counters, fingerprint and identities.

A cell that fails any check counts as a failed operation.  The
counters are read from the finished System right after ``System.run``
returns, outside every timer.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple


def cell_id(config) -> str:
    """A cell's name in this benchmark's grids."""
    return f"{config.workload}/{config.mechanism}"


def cell_counts(system) -> Dict[str, float]:
    """Work counters of a finished System that RunResult lacks.

    The identities need raw totals, and the per-layer ratios of a grid
    are sums over its cells before dividing.
    """
    mmus = system.mmus
    # Tenant contexts of one slot share the slot's TLB hierarchy.
    tlbs = list({id(mmu.tlbs): mmu.tlbs for mmu in mmus}.values())
    walkers = [mmu.walker.stats for mmu in mmus]
    hierarchy = system.hierarchy
    l1s = [cache.stats for cache in hierarchy.l1ds]
    dram = hierarchy.dram_stats()
    pwcs = [cache.stats for pwc_set in system.pwc_sets
            if pwc_set is not None for cache in pwc_set.caches().values()]
    sched = system.scheduler_stats
    cores = system.cores
    return {
        "ideal": int(system.spec.ideal),
        "translations": sum(m.stats.translations for m in mmus),
        "tlb_hits": sum(m.stats.tlb_hits for m in mmus),
        "mmu_walks": sum(m.stats.walks for m in mmus),
        "tlb_lookups": sum(t.lookups for t in tlbs),
        "tlb_full_misses": sum(t.full_misses for t in tlbs),
        "walker_walks": sum(w.walks for w in walkers),
        "pte_reads": sum(w.memory_accesses for w in walkers),
        "pwc_hits": sum(s.hits for s in pwcs),
        "pwc_misses": sum(s.misses for s in pwcs),
        "l1_data_hits": sum(s.data.hits for s in l1s),
        "l1_data_misses": sum(s.data.misses for s in l1s),
        "l1_meta_hits": sum(s.metadata.hits for s in l1s),
        "l1_meta_misses": sum(s.metadata.misses for s in l1s),
        "l1_writebacks": sum(s.writebacks for s in l1s),
        "l1_bypasses": hierarchy.stats.l1_bypasses,
        "dram_reads": hierarchy.stats.dram_reads,
        "dram_row_hits": dram.row_hits,
        "dram_row_misses": dram.row_misses,
        "dram_queue_cycles": dram.queue_delay.total,
        "dram_queue_samples": dram.queue_delay.count,
        "data_stall_cycles": sum(c.stats.data_stall_cycles for c in cores),
        "compute_cycles": sum(c.stats.references
                              * (c.issue_cycles + c.gap_cycles)
                              for c in cores),
        "context_switches": (sched.context_switches
                             if sched is not None else 0),
    }


def fingerprint(result) -> str:
    """Digest of what a host-time change must leave identical: cycles,
    references, walks, PTE reads and DRAM accesses by kind."""
    payload = [repr(result.cycles), result.references, result.walks,
               result.pte_memory_accesses,
               sorted(result.dram_accesses_by_kind.items())]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def grid_fingerprint(fingerprints: Dict[str, str]) -> str:
    """One digest over every cell's fingerprint."""
    text = json.dumps(sorted(fingerprints.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def identity_errors(result, counts: Dict[str, float]) -> List[str]:
    """Conservation identities every cell satisfies; one line per
    violated identity."""
    config = result.config
    errors = []
    refs = config.refs_per_core * config.num_cores * config.tenants
    if result.references != refs:
        errors.append(f"references {result.references} != refs_per_core"
                      f" x cores x tenants = {refs}")
    misses = counts["translations"] - counts["tlb_hits"]
    if result.walks != misses:
        errors.append(f"walks {result.walks} != translations - TLB hits"
                      f" = {misses}")
    if counts["ideal"] and result.walks:
        errors.append(f"Ideal made {result.walks} walks")
    if result.walks != counts["mmu_walks"]:
        errors.append(f"walks {result.walks} != sum of MMU walks "
                      f"{counts['mmu_walks']}")
    dram = sum(result.dram_accesses_by_kind.values())
    expected = counts["dram_reads"] + counts["l1_writebacks"]
    if dram != expected:
        errors.append(f"DRAM accesses {dram} != hierarchy DRAM reads + "
                      f"L1 write-backs = {expected}")
    return errors


def totals(cells: Iterable[Tuple[object, Dict[str, float]]]
           ) -> Dict[str, float]:
    """Counters and RunResult fields summed over ``(result, counts)``
    cells; ``core_cycles`` is cycles x cores, the shares' base."""
    total: Dict[str, float] = defaultdict(float)
    for result, counts in cells:
        for key, value in counts.items():
            total[key] += value
        os_stats = result.os_stats
        dram = result.dram_accesses_by_kind
        total["references"] += result.references
        total["core_cycles"] += result.cycles * result.config.num_cores
        total["translation_cycles"] += result.translation_cycles
        total["fault_cycles"] += result.fault_cycles
        total["walks"] += result.walks
        total["walk_cycles"] += result.ptw_latency_mean * result.walks
        total["roi_faults"] += (os_stats["minor_faults"]
                                + os_stats["huge_faults"])
        total["dram_accesses"] += sum(dram.values())
        total["dram_metadata"] += dram.get("metadata", 0)
    return total
