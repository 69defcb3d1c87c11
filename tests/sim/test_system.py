"""Tests for system assembly (Table I wiring, prefault warmup)."""

import gc
import tracemalloc
from collections import Counter

import pytest

from repro.mem.dram import DDR4_2400, HBM2
from repro.sim import runner
from repro.sim.config import cpu_config, ndp_config
from repro.sim.core_model import Core
from repro.sim.system import System
from repro.vm.os_model import OSMemoryManager
from repro.vm.radix import TableNode
from repro.workloads.base import CHUNK_REFS
from repro.workloads.gups import GupsWorkload

FAST = dict(workload="rnd", refs_per_core=300, scale=1 / 64)

MIB = 1 << 20

#: The bfs-radix benchmark cell at a sixth of its length (0.70 walks
#: per reference).
BFS_RADIX = ndp_config(workload="bfs", mechanism="radix",
                       refs_per_core=20_000, scale=0.05)


class TestShapes:
    def test_ndp_single_level_hbm(self):
        system = System(ndp_config(**FAST))
        assert system.hierarchy.l2s is None
        assert system.hierarchy.l3 is None
        assert system.hierarchy.dram.timing is HBM2

    def test_cpu_three_levels_ddr4(self):
        system = System(cpu_config(**FAST))
        assert system.hierarchy.l2s is not None
        assert system.hierarchy.l3 is not None
        assert system.hierarchy.dram.timing is DDR4_2400

    def test_one_mmu_per_core(self):
        system = System(ndp_config(num_cores=3, **FAST))
        assert len(system.mmus) == 3
        assert len(system.cores) == 3
        assert len(system.hierarchy.l1ds) == 3

    def test_shared_page_table(self):
        system = System(ndp_config(num_cores=2, **FAST))
        assert system.mmus[0].walker.table is system.mmus[1].walker.table

    def test_ech_has_no_pwcs(self):
        system = System(ndp_config(mechanism="ech", **FAST))
        assert system.pwc_sets == [None]

    def test_ndpage_pwc_levels(self):
        system = System(ndp_config(mechanism="ndpage", **FAST))
        assert list(system.pwc_sets[0].caches()) == ["PL4", "PL3", "PL2/1"]


class TestPrefault:
    def test_warmup_maps_stream_footprint(self, mapped_pages):
        system = System(ndp_config(**FAST))
        assert mapped_pages(system.tenants[0].page_table) > 0

    def test_warmup_fault_stats_reset(self):
        system = System(ndp_config(**FAST))
        assert system.tenants[0].os.stats.minor_faults == 0
        assert system.tenants[0].os.stats.fault_cycles == 0.0

    def test_roi_sees_no_faults_after_full_warmup(self):
        system = System(ndp_config(**FAST))
        system.run()
        assert system.tenants[0].os.stats.minor_faults == 0

    def test_cold_start_when_disabled(self, mapped_pages):
        system = System(ndp_config(warmup_refs=0, **FAST))
        assert mapped_pages(system.tenants[0].page_table) == 0
        system.run()
        assert system.tenants[0].os.stats.minor_faults > 0

    def test_partial_warmup(self, mapped_pages):
        cfg = ndp_config(workload="rnd", refs_per_core=400,
                         warmup_refs=100, scale=1 / 64)
        system = System(cfg)
        table = system.tenants[0].page_table
        mapped_after_warmup = mapped_pages(table)
        system.run()
        # The second half faults.
        assert system.tenants[0].os.stats.minor_faults > 0
        assert mapped_pages(table) > mapped_after_warmup

    def test_hugepage_contiguity_consumed_in_warmup(self):
        system = System(ndp_config(mechanism="hugepage",
                                   thp_promotion_fraction=1.0, **FAST))
        assert system.tenants[0].page_table.huge_mappings > 0


def _collected(system):
    runner.collect(system, system.run())


def _leftovers(config, finish=_collected):
    """Cores, OS managers and page-table nodes still alive after a
    System is built, ``finish``-ed (by default run and collected) and
    dropped, with the cyclic collector paused."""
    tracked = (Core, OSMemoryManager, TableNode)

    def live():
        return sum(type(obj) in tracked for obj in gc.get_objects())

    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = live()
        system = System(config)
        finish(system)
        del system
        return live() - before
    finally:
        if gc_was_enabled:
            gc.enable()


class _StreamFault(Exception):
    """Raised by a patched workload in the middle of a run."""


def _run_until_fault(system):
    # try/except, not pytest.raises: the exception's traceback holds
    # the run's frames, and with them the System, until it is cleared.
    try:
        system.run()
    except _StreamFault:
        return
    raise AssertionError("the run did not raise")


class TestLifetime:
    """The cyclic GC never frees a System whose run returned or raised:
    refcounting does."""

    @pytest.mark.parametrize("config", [
        ndp_config(workload="bc", mechanism="radix", refs_per_core=3000),
        ndp_config(workload="rnd", mechanism="radix", num_cores=4,
                   refs_per_core=1000, scale=1 / 64),
        ndp_config(workload="xs", mechanism="ndpage", num_cores=2,
                   tenants=2, refs_per_core=2000, scale=1 / 64),
    ], ids=["fig12-cell", "radix-4c", "ndpage-2t-2c"])
    def test_finished_system_freed_by_refcount(self, config):
        assert _leftovers(config) == 0

    @pytest.mark.parametrize("tenants,cores", [(1, 2), (2, 1), (2, 2)],
                             ids=["1t-2c", "2t-1c", "2t-2c"])
    def test_raised_run_freed_by_refcount(self, tenants, cores,
                                          monkeypatch):
        """A run whose stream raises leaves no cycle behind either: no
        warmup, so core 0's stream is generated during the run and
        raises on its second batch (a lone tenant's batches hold
        CHUNK_REFS references, a co-runner's a quantum)."""
        chunk = GupsWorkload._chunk
        batches = Counter()

        def faulty(self, rng, num_refs, state):
            if state["core_id"] == 0:
                batches[id(state)] += 1
                if batches[id(state)] == 2:
                    raise _StreamFault
            return chunk(self, rng, num_refs, state)

        monkeypatch.setattr(GupsWorkload, "_chunk", faulty)
        config = ndp_config(workload="rnd", mechanism="radix",
                            num_cores=cores, tenants=tenants,
                            refs_per_core=CHUNK_REFS + 1000,
                            warmup_refs=0, scale=1 / 64)
        assert _leftovers(config, _run_until_fault) == 0


class TestMemory:
    """Neither the walks nor the warmup replay keep per-item state."""

    def test_run_keeps_no_per_walk_state(self):
        system = System(BFS_RADIX)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            system.run()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 2 * MIB

    def test_replay_buffer_is_compact(self):
        tracemalloc.start()
        try:
            system = System(BFS_RADIX)
            held = tracemalloc.get_traced_memory()[0]
            for core in system.cores:
                core._chunks = None   # the iterator over its replay
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 < freed <= 16 * BFS_RADIX.refs_per_core
