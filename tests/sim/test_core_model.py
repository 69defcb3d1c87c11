"""Tests for the core timing model (MLP window, accounting, the
inlined hit probes)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.dram import HBM2
from repro.mem.hierarchy import build_ndp_hierarchy
from repro.mmu.mmu import Mmu
from repro.mmu.tlb import build_tlbs
from repro.mmu.walker import PageTableWalker
from repro.sim.config import CacheParams, TlbParams, ndp_config
from repro.sim.core_model import Core
from repro.sim.system import System
from repro.vm.address import PAGE_SHIFT, PAGE_SIZE
from repro.vm.frames import FrameAllocator
from repro.vm.ideal import IdealPageTable
from repro.vm.os_model import OSMemoryManager
from repro.workloads.base import chunk_probe_keys

MIB = 1024 ** 2


def chunks_of(stream, size=8):
    """``(vaddr, is_write)`` pairs as the four-field chunks a core
    consumes, ``size`` references per chunk."""
    for start in range(0, len(stream), size):
        part = stream[start:start + size]
        addrs = [vaddr for vaddr, _ in part]
        vpns, vlines = chunk_probe_keys(np.asarray(addrs, dtype=np.int64))
        yield addrs, [is_write for _, is_write in part], vpns, vlines


def make_core(stream, mlp=2, gap=1):
    from repro.vm.os_model import FaultCosts
    allocator = FrameAllocator(64 * MIB)
    table = IdealPageTable()
    # Zero fault costs: these tests isolate the core's timing window.
    os_model = OSMemoryManager(allocator, table,
                               costs=FaultCosts(minor_fault_cycles=0))
    hierarchy = build_ndp_hierarchy(1, HBM2)
    walker = PageTableWalker(table, hierarchy, core_id=0)
    mmu = Mmu(0, build_tlbs(TlbParams()), walker, os_model,
              ideal=True)
    return Core(0, mmu, hierarchy, chunks_of(stream), gap_cycles=gap,
                mlp=mlp)


class TestStepping:
    def test_step_consumes_one_reference(self):
        core = make_core([(0x1000, False), (0x2000, False)])
        assert core.step(0.0) is not None
        assert core.stats.references == 1

    def test_exhausted_stream_returns_none(self):
        core = make_core([(0x1000, False)])
        now = core.step(0.0)
        assert core.step(now) is None
        assert core.finished

    def test_instructions_include_gap(self):
        core = make_core([(0x1000, False)] * 3, gap=4)
        now = 0.0
        while (now := core.step(now)) is not None:
            pass
        assert core.stats.instructions == 3 * 5  # 1 mem + 4 ALU each

    def test_time_advances_monotonically(self):
        core = make_core([(i * 4096, False) for i in range(20)])
        now, times = 0.0, []
        while True:
            nxt = core.step(now)
            if nxt is None:
                break
            times.append(nxt)
            now = nxt
        assert times == sorted(times)

    def test_drain_extends_cycles_to_last_completion(self):
        core = make_core([(0x100000, False)])
        now = core.step(0.0)
        core.step(now)
        # The data access (DRAM) outlives the issue slot.
        assert core.stats.cycles >= HBM2.row_miss_cycles

    def test_mlp_validated(self):
        with pytest.raises(ValueError):
            make_core([], mlp=0)


class TestMlpWindow:
    def test_window_limits_outstanding_misses(self):
        # Distinct lines -> every access misses L1 and goes to DRAM.
        stream = [(i * 64 * 64, False) for i in range(12)]
        narrow = make_core(list(stream), mlp=1)
        wide = make_core(list(stream), mlp=8)
        for core in (narrow, wide):
            now = 0.0
            while (now := core.step(now)) is not None:
                pass
        assert narrow.stats.cycles > wide.stats.cycles
        assert narrow.stats.data_stall_cycles \
            > wide.stats.data_stall_cycles

    def test_l1_hits_do_not_stall(self):
        stream = [(0x1000, False)] * 50
        core = make_core(stream, mlp=1)
        now = 0.0
        while (now := core.step(now)) is not None:
            pass
        # After the first fill, every access hits: ~issue+gap per ref.
        assert core.stats.cycles < 50 * 20


class TestAccounting:
    def test_translation_fraction_zero_for_ideal(self):
        core = make_core([(0x1000, False)] * 5)
        now = 0.0
        while (now := core.step(now)) is not None:
            pass
        assert core.stats.translation_fraction == 0.0

    def test_ipc_positive(self):
        core = make_core([(0x1000, False)] * 5)
        now = 0.0
        while (now := core.step(now)) is not None:
            pass
        assert core.stats.ipc > 0


def recorded(chunks, into):
    """Pass ``chunks`` through, appending each one to ``into``."""
    for chunk in chunks:
        into.append(chunk)
        yield chunk


class TestInlineHitProbes:
    """The L1-DTLB and L1 hit probes ``Core._chunk_runner`` inlines,
    against one :class:`LruSets` model per structure over a whole run.

    One core under ``ndpage``: its PTE reads bypass the L1, so the L1
    holds the core's data lines alone.  Every reference probes the
    L1-DTLB with its VPN (a miss refills it, from the L2 TLB or the
    walk) and the L1 with its physical line (a miss fills it, a write
    dirties it).  The run and the models must agree on every hit and
    miss count, the final sets in LRU order and the dirty bits.
    """

    @pytest.mark.parametrize("workload", ["xs", "dlrm", "bfs"])
    @given(seed=st.integers(0, 2 ** 16))
    @settings(max_examples=5, deadline=None)
    def test_matches_lru_model(self, lru_sets, workload, seed):
        config = dataclasses.replace(
            ndp_config(mechanism="ndpage", workload=workload,
                       refs_per_core=3000, scale=1 / 256, seed=seed),
            tlb=TlbParams(l1_small_entries=8, l1_small_assoc=2),
            l1=CacheParams(2048, 2, 4))
        system = System(config)
        core = system.cores[0]
        chunks = []
        core._chunks = recorded(core._chunks, chunks)
        l1t = core.mmu.tlbs.l1_small
        l1 = system.hierarchy.l1ds[0]
        # The warmup maps pages without probing either structure.
        assert not any(l1t._sets) and not any(l1._sets)
        system.run()
        tenant = system.tenants[0]
        assert tenant.os.stats.reclaims == 0  # every mapping held

        tlb = lru_sets(l1t.num_sets, l1t.associativity)
        cache = lru_sets(l1.num_sets, l1.associativity)
        dirty = {}  # resident line -> dirty bit
        references = tlb_hits = l1_hits = 0
        for addrs, writes, vpns, _ in chunks:
            for vaddr, is_write, vpn in zip(addrs, writes, vpns):
                references += 1
                tlb_hits += tlb.access(vpn)[0]
                pfn = tenant.page_table.lookup(vpn).pfn
                line = (((pfn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1)))
                        >> l1._line_shift)
                hit, victim = cache.access(line)
                l1_hits += hit
                dirty.pop(victim, None)
                dirty[line] = dirty.get(line, 0) | int(is_write)

        assert references == core.stats.references == 3000
        assert (l1t.stats.hits, l1t.stats.misses) \
            == (tlb_hits, references - tlb_hits)
        assert (l1.stats.data.hits, l1.stats.data.misses) \
            == (l1_hits, references - l1_hits)
        assert [list(tlb_set) for tlb_set in l1t._sets] == tlb.sets
        assert [list(cache_set) for cache_set in l1._sets] == cache.sets
        assert {line: packed & 1 for cache_set in l1._sets
                for line, packed in cache_set.items()} == dirty
