"""Fig. 7 + Section IV-A scalars: L1 miss rates of normal data (ideal
vs actual) and of metadata, on the 4-core NDP system.

Paper: metadata misses 98.28% of the time in the L1; the normal-data
miss rate is 35.89% with translation traffic vs 26.16% in the ideal
(no-translation) system — a 1.37x pollution penalty.  Section IV-A
also reports that 65.8% of memory accesses are PTE accesses.
"""

from conftest import bench_refs, run_exactly_once

from repro.analysis.experiments import l1_miss_breakdown
from repro.analysis.metrics import mean
from repro.analysis.tables import format_table


def test_fig07_l1_miss_breakdown(benchmark, emit):
    table = run_exactly_once(benchmark, lambda: l1_miss_breakdown(
        num_cores=4, refs_per_core=bench_refs(3500)))

    rows = [
        [wl, row.data_ideal, row.data_actual, row.metadata,
         row.tlb_miss_rate, row.metadata_mem_fraction]
        for wl, row in table.items()
    ]
    means = [
        mean(r.data_ideal for r in table.values()),
        mean(r.data_actual for r in table.values()),
        mean(r.metadata for r in table.values()),
        mean(r.tlb_miss_rate for r in table.values()),
        mean(r.metadata_mem_fraction for r in table.values()),
    ]
    rows.append(["MEAN"] + means)
    emit("\n" + format_table(
        ["workload", "data(ideal)", "data(actual)", "metadata",
         "tlb miss", "PTE share"], rows,
        title="Fig. 7 — L1 miss rates, 4-core NDP, Radix"))
    emit(f"paper: metadata 98.28%, data 35.89% actual vs 26.16% ideal "
         f"(1.37x), PTE share 65.8% | measured: metadata {means[2]:.1%},"
         f" data {means[1]:.1%} vs {means[0]:.1%} "
         f"({means[1] / max(1e-9, means[0]):.2f}x), "
         f"PTE share {means[4]:.1%}")

    # Metadata is by far the worst-missing traffic class.
    assert means[2] > 0.6
    assert means[2] > means[1]
    # Pollution: the direction never inverts, and metadata fills
    # demonstrably evict live data lines (the rate gap is smaller than
    # the paper's 1.37x, so only the direction is asserted).
    assert means[1] >= means[0] - 0.01
    assert all(r.pollution_evictions > 0 for r in table.values())
    # PTEs are a large share of all memory accesses.
    assert means[4] > 0.3
