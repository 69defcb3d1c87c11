"""Tests for the elastic cuckoo hash page table (ECH baseline)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.vm.address import PAGE_SHIFT
from repro.vm.base import MappingError, Translation
from repro.vm.cuckoo import ECH_ENTRY_BYTES, ElasticCuckooPageTable
from repro.vm.frames import FrameAllocator

MIB = 1024 ** 2
VPNS = st.integers(min_value=0, max_value=(1 << 36) - 1)


@pytest.fixture
def table(big_allocator):
    return ElasticCuckooPageTable(big_allocator, initial_entries=1 << 10)


class TestFunctional:
    def test_unmapped_lookup_none(self, table):
        assert table.lookup(1) is None

    def test_map_then_lookup(self, table):
        table.map_page(0x777, pfn=3)
        assert table.lookup(0x777) == Translation(3, PAGE_SHIFT)

    def test_double_map_rejected(self, table):
        table.map_page(1, pfn=1)
        with pytest.raises(MappingError):
            table.map_page(1, pfn=2)

    def test_unmap(self, table):
        table.map_page(1, pfn=1)
        table.unmap_page(1)
        assert table.lookup(1) is None

    def test_unmap_missing_rejected(self, table):
        with pytest.raises(MappingError):
            table.unmap_page(1)

    def test_huge_pages_rejected(self, table):
        with pytest.raises(MappingError):
            table.map_page(0, pfn=512, page_shift=21)

    def test_needs_two_ways(self, big_allocator):
        with pytest.raises(ValueError):
            ElasticCuckooPageTable(big_allocator, ways=1)

    @given(st.lists(VPNS, min_size=1, max_size=200, unique=True))
    @settings(max_examples=20, deadline=None)
    def test_mass_insert_lookup(self, mapped_pages, pages):
        table = ElasticCuckooPageTable(
            FrameAllocator(1024 * MIB), initial_entries=1 << 8)
        for i, page in enumerate(pages):
            table.map_page(page, pfn=i)
        for i, page in enumerate(pages):
            assert table.lookup(page) == Translation(i, PAGE_SHIFT)
        assert mapped_pages(table) == len(pages)


class TestElasticity:
    def test_resize_triggered_by_load(self, big_allocator):
        table = ElasticCuckooPageTable(
            big_allocator, initial_entries=64, resize_threshold=0.5)
        for i in range(200):
            table.map_page(i * 97, pfn=i)
        assert table.stats.resizes >= 1
        for i in range(200):
            assert table.lookup(i * 97) == Translation(i, PAGE_SHIFT)

    def test_load_factor_bounded_after_resizes(self, big_allocator):
        table = ElasticCuckooPageTable(
            big_allocator, initial_entries=64, resize_threshold=0.6)
        for i in range(500):
            table.map_page(i, pfn=i)
        assert table.load_factor <= 0.6 + 0.01

    def test_rehash_counts_entries(self, big_allocator):
        table = ElasticCuckooPageTable(
            big_allocator, initial_entries=32, resize_threshold=0.5)
        for i in range(100):
            table.map_page(i, pfn=i)
        assert table.stats.rehashed_entries > 0

    def test_kicks_occur_under_pressure(self, big_allocator):
        table = ElasticCuckooPageTable(
            big_allocator, initial_entries=64, resize_threshold=0.95)
        for i in range(110):
            table.map_page(i * 31, pfn=i)
        # With 2 ways nearly full, displacement chains must have run.
        assert table.stats.kicks > 0

    def test_table_bytes_grow_on_resize(self, big_allocator):
        table = ElasticCuckooPageTable(
            big_allocator, initial_entries=64, resize_threshold=0.5)
        before = table.table_bytes()
        for i in range(200):
            table.map_page(i, pfn=i)
        assert table.table_bytes() > before


class TestWalkStructure:
    def test_single_parallel_stage(self, table):
        table.map_page(50, pfn=1)
        flat, probes, translation = table.walk_info_decorated(50)
        assert flat is None
        # d parallel probes, one per way in ``level_names`` order.
        assert table.level_names == ("ECH-way0", "ECH-way1")
        assert len(probes) == 2
        assert translation == Translation(1, PAGE_SHIFT)

    def test_probes_have_no_pwc_keys(self, table):
        table.map_page(50, pfn=1)
        # A probe is a bare PTE address: no PWC prefix rides along.
        assert all(type(probe) is int
                   for probe in table.walk_info_decorated(50)[1])

    def test_probe_addresses_follow_hashes(self, table):
        table.map_page(50, pfn=1)
        probes = table.walk_info_decorated(50)[1]
        assert len(set(probes)) == 2
        for probe in probes:
            assert probe % ECH_ENTRY_BYTES == 0

    def test_walk_unmapped_rejected(self, table):
        assert table.walk_info_decorated(1) is None

    def test_occupancy_per_way(self, table):
        for i in range(100):
            table.map_page(i, pfn=i)
        occ = table.occupancy()
        assert set(occ) == {"ECH-way0", "ECH-way1"}
        total = sum(occ.values())
        assert total == pytest.approx(100 / (1 << 10), rel=0.01)


class TestDeterminism:
    def test_same_seed_same_structure(self):
        t1 = ElasticCuckooPageTable(FrameAllocator(256 * MIB), seed=7)
        t2 = ElasticCuckooPageTable(FrameAllocator(256 * MIB), seed=7)
        for i in range(300):
            t1.map_page(i, pfn=i)
            t2.map_page(i, pfn=i)
        for i in range(300):
            assert t1.walk_info_decorated(i) == t2.walk_info_decorated(i)
