"""Ablations of NDPage's design choices (the ablation mechanisms of
``repro.core.mechanisms``).

Decomposes the two mechanisms (Section V-A bypass, Section V-B
flattening) and the PWC choice (Section V-C), and checks NDPage under
a CPU-style deep cache hierarchy — the paper argues the technique is
tailored to the *single-level* NDP cache.
"""

from conftest import bench_refs, run_exactly_once

from repro.analysis.experiments import ablation_experiment
from repro.analysis.metrics import average_speedups
from repro.analysis.tables import format_mapping_table
from repro.sim.config import cpu_config, ndp_config
from repro.sim.runner import run_mechanisms

MECHS = ("radix", "ndpage-bypass-only", "ndpage-flatten-only",
         "ndpage-nopwc", "ndpage-flatten-upper", "ndpage")


def test_ablation_mechanism_decomposition(benchmark, emit):
    table = run_exactly_once(benchmark, lambda: ablation_experiment(
        num_cores=4, workloads=("bfs", "xs", "rnd", "gen"),
        refs_per_core=bench_refs(3000)))

    averages = average_speedups(table)
    table["AVG"] = averages
    emit("\n" + format_mapping_table(
        table, list(MECHS), row_label="workload",
        title="Ablation — NDPage mechanism decomposition, 4-core NDP"))

    # Flattening is the dominant single mechanism.
    assert averages["ndpage-flatten-only"] > 1.15
    # The composite is at least as good as bypass alone and within a
    # small band of flatten alone (bypassed flat PTEs have no L1 reuse
    # to lose, and pollution disappears).
    assert averages["ndpage"] >= averages["ndpage-bypass-only"]
    # Bypassing costs the few L1 hits clustered PTE lines still get,
    # so the composite sits a handful of percent under flatten-only
    # while keeping the L1 completely clean of metadata.
    assert averages["ndpage"] >= averages["ndpage-flatten-only"] - 0.10
    # PWCs matter: removing them costs measurable speedup.
    assert averages["ndpage"] > averages["ndpage-nopwc"]
    # Flattening the *upper* pair instead (counterfactual) is worse:
    # the PL4/PL3 PWCs already absorbed those accesses, so the merge
    # saves a fetch the walker rarely performed while keeping both
    # poorly-caching bottom accesses.
    assert averages["ndpage"] > averages["ndpage-flatten-upper"]


def test_ablation_ndpage_is_an_ndp_technique(benchmark, emit):
    """NDPage's edge shrinks on a CPU with a deep cache hierarchy,
    where PTEs already cache well — the paper's motivation for a
    *tailored* NDP design."""
    def _run():
        out = {}
        for system, factory in (("ndp", ndp_config), ("cpu", cpu_config)):
            results = run_mechanisms(
                factory(workload="bfs", num_cores=4,
                        refs_per_core=bench_refs(3000)),
                ["radix", "ndpage"])
            out[system] = (results["radix"].cycles
                           / results["ndpage"].cycles)
        return out

    gains = run_exactly_once(benchmark, _run)
    emit(f"\nNDPage speedup over Radix — NDP: {gains['ndp']:.3f}, "
         f"CPU: {gains['cpu']:.3f} (the technique targets NDP)")
    assert gains["ndp"] > gains["cpu"]


def test_ablation_hugepage_contiguity_pressure(benchmark, emit):
    """Section VII-B's mechanism, isolated: with physical memory tight
    enough that 2 MB contiguity runs out, Huge Page falls behind while
    NDPage (4 KB pages) is unaffected."""
    def _run():
        cfg = ndp_config(workload="rnd", num_cores=4,
                         refs_per_core=bench_refs(2500),
                         phys_bytes=2 * 1024 ** 3,  # 2 GB: tight
                         boot_fragmentation=0.85,
                         thp_promotion_fraction=1.0,
                         warmup_refs=0)  # faults land in the ROI
        return run_mechanisms(cfg, ["radix", "hugepage", "ndpage"])

    results = run_exactly_once(benchmark, _run)
    huge_sp = results["radix"].cycles / results["hugepage"].cycles
    ndpage_sp = results["radix"].cycles / results["ndpage"].cycles
    os_stats = results["hugepage"].os_stats
    emit(f"\nUnder contiguity pressure (2 GB, 85% fragmented): "
         f"HugePage {huge_sp:.3f}x, NDPage {ndpage_sp:.3f}x over Radix;"
         f" hugepage fallbacks={os_stats['huge_fallbacks']:.0f} "
         f"compactions={os_stats['compactions']:.0f}")
    assert ndpage_sp > huge_sp
    assert results["hugepage"].os_stats["huge_fallbacks"] > 0
