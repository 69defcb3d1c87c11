"""Statistics-preservation regression tests.

The hot-path implementation (allocation-free cache/DRAM/walker paths,
chunked core fast path, plan memoization) must never change *simulated*
numbers — only wall-clock time.  Two lines of defense:

1. golden values: one small config per mechanism family (radix / NDPage
   / ideal, plus the upper-flattened ablation) with every headline
   ``RunResult`` metric pinned exactly, so
   a hot-path refactor that silently perturbs the simulation fails
   loudly;
2. path equivalence: the single-core chunked fast path (the core's
   chunk coroutine, driven by the run-ahead engine) must produce
   results bit-identical to stepping one reference at a time through
   ``Core.step`` — the code path the debug reference engine uses.

These rely on the simulator being fully deterministic across processes
(PWC set indexing is integer-based, RNGs are seeded), which
``test_deterministic_across_calls`` double-checks in-process.
"""

import dataclasses

import pytest

from repro.sim.config import ndp_config
from repro.sim.runner import collect, run_once
from repro.sim.system import System


def small_config(mechanism: str, **overrides):
    overrides.setdefault("workload", "bfs")
    overrides.setdefault("refs_per_core", 4000)
    overrides.setdefault("scale", 1 / 64)
    overrides.setdefault("seed", 7)
    return ndp_config(mechanism=mechanism, **overrides)


def result_fields(result) -> dict:
    fields = dataclasses.asdict(result)
    fields.pop("config")
    return fields


#: Golden RunResult values (generated at the PR that introduced the
#: fast paths; bit-exact on any machine).
GOLDEN = {
    "radix": {
        "cycles": 418858.0,
        "references": 4000,
        "walks": 2674,
        "tlb_miss_rate": 0.6685,
        "ptw_latency_mean": 121.48466716529543,
        "l1_data_miss_rate": 0.72525,
        "l1_metadata_miss_rate": 0.6622305030609529,
        "pte_memory_accesses": 3757,
        "data_evicted_by_metadata": 1168,
        "fault_cycles": 0.0,
        "dram_accesses_by_kind": {"data": 3367, "metadata": 2488,
                                  "instruction": 0},
        "dram_row_hit_rate": 0.02134927412467976,
    },
    "ndpage": {
        "cycles": 422178.0,
        "references": 4000,
        "walks": 2674,
        "tlb_miss_rate": 0.6685,
        "ptw_latency_mean": 123.79431563201197,
        "l1_data_miss_rate": 0.71875,
        "l1_metadata_miss_rate": 0.0,
        "pte_memory_accesses": 2677,
        "data_evicted_by_metadata": 0,
        "fault_cycles": 0.0,
        "dram_accesses_by_kind": {"data": 3291, "metadata": 2677,
                                  "instruction": 0},
        "dram_row_hit_rate": 0.02898793565683646,
    },
    # The counterfactual PL3/PL2 flattening: the one ablation table
    # with its own walk plan.
    "ndpage-flatten-upper": {
        "cycles": 527845.0,
        "references": 4000,
        "walks": 2674,
        "tlb_miss_rate": 0.6685,
        "ptw_latency_mean": 163.1170531039641,
        "l1_data_miss_rate": 0.71875,
        "l1_metadata_miss_rate": 0.0,
        "pte_memory_accesses": 3755,
        "data_evicted_by_metadata": 0,
        "fault_cycles": 0.0,
        "dram_accesses_by_kind": {"data": 3291, "metadata": 3755,
                                  "instruction": 0},
        "dram_row_hit_rate": 0.08558047118932728,
    },
    "ideal": {
        "cycles": 203099.0,
        "references": 4000,
        "walks": 0,
        "tlb_miss_rate": 0.0,
        "ptw_latency_mean": 0.0,
        "l1_data_miss_rate": 0.71875,
        "l1_metadata_miss_rate": 0.0,
        "pte_memory_accesses": 0,
        "data_evicted_by_metadata": 0,
        "fault_cycles": 0.0,
        "dram_accesses_by_kind": {"data": 3291, "metadata": 0,
                                  "instruction": 0},
        "dram_row_hit_rate": 0.0,
    },
}


class TestGoldenStats:
    @pytest.mark.parametrize("mechanism", sorted(GOLDEN))
    def test_run_result_matches_golden(self, mechanism):
        result = run_once(small_config(mechanism))
        golden = GOLDEN[mechanism]
        mismatches = {
            name: (getattr(result, name), expected)
            for name, expected in golden.items()
            if getattr(result, name) != expected
        }
        assert not mismatches, (
            f"{mechanism}: simulated statistics drifted: {mismatches}")

    def test_deterministic_across_calls(self):
        first = result_fields(run_once(small_config("radix")))
        second = result_fields(run_once(small_config("radix")))
        assert first == second


class TestPathEquivalence:
    """Chunked fast path == one-reference step path, bit for bit."""

    @pytest.mark.parametrize("mechanism", ["radix", "ndpage", "ideal"])
    def test_step_until_matches_step(self, mechanism):
        fast = run_once(small_config(mechanism))

        system = System(small_config(mechanism))
        core = system.cores[0]
        now = 0.0
        while True:
            next_ready = core.step(now)
            if next_ready is None:
                break
            now = next_ready
        slow = collect(
            system, max(c.stats.cycles for c in system.cores))

        fast_fields = result_fields(fast)
        slow_fields = result_fields(slow)
        diff = {
            key: (fast_fields[key], slow_fields[key])
            for key in fast_fields
            if fast_fields[key] != slow_fields[key]
        }
        assert not diff, f"fast/slow paths diverged: {diff}"

    def test_multi_core_heap_unchanged(self):
        """Two-core runs (heap engine + step()) stay deterministic and
        aggregate the same references."""
        config = dataclasses.replace(
            small_config("radix", refs_per_core=1500), num_cores=2)
        first = run_once(config)
        second = run_once(config)
        assert first.references == 3000
        assert result_fields(first) == result_fields(second)
