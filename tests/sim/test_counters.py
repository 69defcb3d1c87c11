"""Work counters across engines, and RunResult conservation invariants.

The chunked core loop counts nothing on its hit paths: a core keeps
its references and its L1-DTLB and L1 misses in locals and flushes
them into the TLB, MMU and L1 counters when a time slice or its
stream ends.  Most of those counters are not ``RunResult`` fields, so
the engine-equivalence tests in test_engine.py cannot see a lost
flush; the tests here compare the counters themselves, after whole
runs, against the per-reference engine behind
``REPRO_REFERENCE_ENGINE=1``.  The invariants pin what every finished
run conserves, on every golden config.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.sim.config import NumaParams, cpu_config, ndp_config
from repro.sim.engine import REFERENCE_ENGINE_ENV
from repro.sim.runner import collect, run_once
from repro.sim.system import System

# Golden configs live next to their pinned values.
from test_golden_stats import GOLDEN, small_config
from test_scheduler import MT_GOLDEN, mt_config
from test_topology import NUMA_GOLDEN, numa_golden_config


def _load_cell_counts():
    """perfbench's ``cell_counts``: the counters its identities and
    per-layer ratios read off a finished System."""
    path = Path(__file__).resolve().parents[2] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cell_counts


cell_counts = _load_cell_counts()


def counters(system) -> dict:
    """Every ``cell_counts`` counter, plus the per-object counters the
    core loop batches: per-level TLB hits and misses, per-MMU and
    per-core counts, per-L1 kind counts and the hierarchy total."""
    tlbs = list({id(mmu.tlbs): mmu.tlbs for mmu in system.mmus}.values())
    return {
        **cell_counts(system),
        "hierarchy_accesses": system.hierarchy.stats.accesses,
        "tlb_levels": [[(tlb.stats.hits, tlb.stats.misses)
                        for tlb in (t.l1_small, t.l1_huge, t.l2)]
                       for t in tlbs],
        "mmus": [(m.stats.translations, m.stats.tlb_hits, m.stats.walks)
                 for m in system.mmus],
        "cores": [(c.stats.references, c.stats.instructions)
                  for c in system.cores],
        "l1s": [[(kind.hits, kind.misses) for kind in cache._kind_stats]
                for cache in system.hierarchy.l1ds],
    }


def small(make=ndp_config, **overrides):
    overrides.setdefault("workload", "bfs")
    overrides.setdefault("refs_per_core", 3000)
    overrides.setdefault("scale", 1 / 64)
    overrides.setdefault("seed", 7)
    return make(**overrides)


#: One config per engine loop and machine shape: the single-core
#: fast path, the multi-core run-ahead, the scheduler's budgeted
#: slices, NUMA routing, the CPU hierarchy, parallel (ECH) walks and the
#: Ideal MMU.
ENGINE_CONFIGS = {
    "radix-1c": small(mechanism="radix"),
    "ndpage-4c": small(mechanism="ndpage", num_cores=4,
                       refs_per_core=1500),
    "ndpage-2t-2c": small(mechanism="ndpage", num_cores=2, tenants=2),
    "radix-numa-2n": small(mechanism="radix", num_cores=2,
                           numa=NumaParams(nodes=2,
                                           placement="interleave")),
    "radix-cpu-2c": small(cpu_config, mechanism="radix", num_cores=2),
    "ech-2c": small(mechanism="ech", num_cores=2),
    "ideal-2c": small(mechanism="ideal", num_cores=2),
}


def run_counters(config) -> dict:
    system = System(config)
    system.run()
    return counters(system)


class TestCounterEquivalence:
    """Run-ahead counters == reference-engine counters, exactly."""

    @pytest.mark.parametrize("name", sorted(ENGINE_CONFIGS))
    def test_matches_reference_engine(self, name, monkeypatch):
        config = ENGINE_CONFIGS[name]
        fast = run_counters(config)
        monkeypatch.setenv(REFERENCE_ENGINE_ENV, "1")
        reference = run_counters(config)
        diff = {key: (fast[key], reference[key])
                for key in fast if fast[key] != reference[key]}
        assert not diff, f"{name}: counters diverged: {diff}"


GOLDEN_CONFIGS = {
    **{mechanism: small_config(mechanism) for mechanism in GOLDEN},
    **{f"{mechanism}-2t": mt_config(mechanism) for mechanism in MT_GOLDEN},
    **{f"{mechanism}-numa-{placement}":
       numa_golden_config(mechanism, placement)
       for mechanism, placement in NUMA_GOLDEN},
}


class TestRunResultInvariants:
    """Conservation laws of a finished run, on every golden config."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_invariants_hold(self, name):
        config = GOLDEN_CONFIGS[name]
        system = System(config)
        result = collect(system, system.run())
        counts = cell_counts(system)

        assert result.references == (config.refs_per_core
                                     * config.num_cores * config.tenants)
        assert result.walks == counts["translations"] - counts["tlb_hits"]
        if counts["ideal"]:
            assert result.walks == 0
        # NDP: the L1 is the only cache level, so its write-backs are
        # the only DRAM traffic besides the hierarchy's misses.
        assert sum(result.dram_accesses_by_kind.values()) \
            == counts["dram_reads"] + counts["l1_writebacks"]
        if not counts["ideal"]:
            ideal = run_once(config.with_mechanism("ideal"))
            assert ideal.cycles <= result.cycles
