"""Tests for the MMU translation flow (Fig. 3 / Fig. 11)."""

from typing import NamedTuple

from repro.mem.dram import HBM2
from repro.mem.hierarchy import build_ndp_hierarchy
from repro.mmu.mmu import Mmu
from repro.mmu.tlb import build_tlbs
from repro.mmu.walker import PageTableWalker
from repro.sim.config import TlbParams
from repro.vm.frames import FrameAllocator
from repro.vm.ideal import IdealPageTable
from repro.vm.os_model import OSMemoryManager
from repro.vm.radix import RadixPageTable

MIB = 1024 ** 2


class Outcome(NamedTuple):
    """The fields of :meth:`Mmu.translate_parts`'s tuple, by name."""

    paddr: int
    latency: float
    fault_cycles: float
    tlb_hit: bool
    walked: bool


def translate(mmu, now, vaddr):
    return Outcome(*mmu.translate_parts(now, vaddr))


def make_mmu(ideal=False):
    allocator = FrameAllocator(128 * MIB)
    if ideal:
        table = IdealPageTable()
    else:
        table = RadixPageTable(allocator)
    os_model = OSMemoryManager(allocator, table)
    hierarchy = build_ndp_hierarchy(1, HBM2)
    walker = PageTableWalker(table, hierarchy, core_id=0, bypass=False)
    return Mmu(0, build_tlbs(TlbParams()), walker, os_model, ideal=ideal)


class TestTranslationFlow:
    def test_first_access_faults_and_walks(self):
        mmu = make_mmu()
        outcome = translate(mmu, 0.0, 0x1234_5678)
        assert not outcome.tlb_hit
        assert outcome.walked
        assert outcome.fault_cycles > 0
        assert outcome.latency > 13  # TLB miss + walk

    def test_second_access_tlb_hit(self):
        mmu = make_mmu()
        translate(mmu, 0.0, 0x1234_5678)
        outcome = translate(mmu, 1000.0, 0x1234_5678)
        assert outcome.tlb_hit
        assert outcome.latency == 1
        assert outcome.fault_cycles == 0

    def test_paddr_preserves_offset(self):
        mmu = make_mmu()
        outcome = translate(mmu, 0.0, 0x1234_5678)
        assert outcome.paddr % 4096 == 0x678

    def test_same_page_same_frame(self):
        mmu = make_mmu()
        a = translate(mmu, 0.0, 0x1234_5000)
        b = translate(mmu, 100.0, 0x1234_5FFF)
        assert a.paddr // 4096 == b.paddr // 4096

    def test_different_pages_different_frames(self):
        mmu = make_mmu()
        a = translate(mmu, 0.0, 0x1000)
        b = translate(mmu, 100.0, 0x2000)
        assert a.paddr // 4096 != b.paddr // 4096

    def test_stats_accumulate(self):
        mmu = make_mmu()
        translate(mmu, 0.0, 0x1000)
        translate(mmu, 100.0, 0x1000)
        translate(mmu, 200.0, 0x2000)
        assert mmu.stats.translations == 3
        assert mmu.stats.tlb_hits == 1
        assert mmu.stats.walks == 2

    def test_walk_latency_distribution(self):
        mmu = make_mmu()
        translate(mmu, 0.0, 0x1000)
        assert mmu.stats.walk_latency.count == 1
        assert mmu.stats.walk_latency.mean > 0


class TestIdealMmu:
    def test_zero_translation_latency(self):
        mmu = make_mmu(ideal=True)
        outcome = translate(mmu, 0.0, 0x9999_0000)
        assert outcome.latency == 0.0
        assert outcome.tlb_hit
        assert not outcome.walked

    def test_faults_still_charged(self):
        """Demand paging exists in every mechanism, including Ideal, so
        end-to-end comparisons stay apples-to-apples."""
        mmu = make_mmu(ideal=True)
        outcome = translate(mmu, 0.0, 0x9999_0000)
        assert outcome.fault_cycles > 0
        assert translate(mmu, 1.0, 0x9999_0000).fault_cycles == 0

    def test_paddr_still_valid(self):
        mmu = make_mmu(ideal=True)
        outcome = translate(mmu, 0.0, 0x9999_0123)
        assert outcome.paddr % 4096 == 0x123
