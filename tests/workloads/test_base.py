"""Tests for the workload base class and layout helpers."""

import pytest

from repro.vm.address import HUGE_PAGE_SIZE
from repro.workloads.base import layout_regions
from repro.workloads.registry import make_workload


def stream(workload, core_id, num_refs):
    """``(vaddr, is_write)`` pairs of :meth:`Workload.stream_chunks`,
    one per reference, as plain Python values."""
    for addrs, writes in workload.stream_chunks(core_id, num_refs):
        yield from zip(addrs.tolist(), writes.tolist())


class TestLayout:
    def test_regions_are_2mb_aligned(self):
        regions = layout_regions([("a", 5000), ("b", 3000)])
        for region in regions:
            assert region.base % HUGE_PAGE_SIZE == 0

    def test_regions_do_not_overlap(self):
        regions = layout_regions([("a", 5000), ("b", 3000), ("c", 1)])
        for earlier, later in zip(regions, regions[1:]):
            assert later.base >= earlier.end

    def test_regions_packed_densely(self):
        regions = layout_regions([("a", HUGE_PAGE_SIZE)])
        follow = layout_regions([("a", HUGE_PAGE_SIZE), ("b", 1)])
        assert follow[1].base == regions[0].end

    def test_named(self):
        regions = layout_regions([("offsets", 100)])
        assert regions[0].name == "offsets"

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            layout_regions([("a", 0)])


class TestWorkloadProtocol:
    @pytest.fixture
    def workload(self):
        return make_workload("rnd", scale=1 / 64)

    def test_scale_validated(self):
        with pytest.raises(ValueError):
            make_workload("rnd", scale=0)

    def test_footprint_scales(self):
        small = make_workload("rnd", scale=1 / 64).footprint_bytes()
        full = make_workload("rnd", scale=1.0).footprint_bytes()
        assert full > 32 * small  # roughly 64x, modulo minimums

    def test_page_ranges_cover_regions(self, workload):
        ranges = workload.page_ranges()
        assert len(ranges) == len(workload.regions())
        for (lo, hi), region in zip(ranges, workload.regions()):
            assert lo <= hi
            assert lo * 4096 <= region.base
            assert (hi + 1) * 4096 >= region.end

    def test_stream_is_deterministic(self, workload):
        a = list(stream(workload, 0, 500))
        b = list(stream(workload, 0, 500))
        assert a == b

    def test_cores_get_different_streams(self, workload):
        a = list(stream(workload, 0, 500))
        b = list(stream(workload, 1, 500))
        assert a != b

    def test_stream_length_exact(self, workload):
        assert len(list(stream(workload, 0, 777))) == 777

    def test_stream_yields_ints_and_bools(self, workload):
        for vaddr, is_write in stream(workload, 0, 50):
            assert isinstance(vaddr, int)
            assert isinstance(is_write, bool)

    def test_private_regions_disjoint_per_core(self, workload):
        a = workload.private_region(0)
        b = workload.private_region(1)
        assert a.end <= b.base or b.end <= a.base

    def test_private_region_validates_core(self, workload):
        with pytest.raises(ValueError):
            workload.private_region(-1)

    def test_stream_touches_shared_and_private(self, workload):
        private = workload.private_region(0)
        shared, private_refs = 0, 0
        for vaddr, _ in stream(workload, 0, 2000):
            if private.base <= vaddr < private.end:
                private_refs += 1
            else:
                shared += 1
        assert shared > private_refs > 0

    def test_describe(self, workload):
        info = workload.describe()
        assert info["name"] == "rnd"
        assert info["suite"] == "GUPS"
        assert info["dataset_gb"] == pytest.approx(10.0)
