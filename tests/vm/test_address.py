"""Unit and property tests for x86-64 address manipulation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.vm import address as addr
from repro.workloads.base import Region, Workload, chunk_probe_keys

VPNS = st.integers(min_value=0, max_value=(1 << 36) - 1)
VADDRS = st.integers(min_value=0, max_value=(1 << 48) - 1)


class TestConstants:
    def test_page_size(self):
        assert addr.PAGE_SIZE == 4096

    def test_huge_page_size(self):
        assert addr.HUGE_PAGE_SIZE == 2 * 1024 * 1024

    def test_entries_per_node(self):
        assert addr.ENTRIES_PER_NODE == 512

    def test_flat_entries_match_paper(self):
        # Section V-B: 2^9 x 2^9 = 262,144 entries per flattened node.
        assert addr.FLAT_ENTRIES == 262_144

    def test_pte_size(self):
        assert addr.PTE_SIZE == 8

    def test_line_size(self):
        assert addr.LINE_SIZE == 64

    def test_pte_region_divisible_by_line(self):
        # Section V-A: 4 KB PTE regions are 64 B-aligned, so marking
        # them never splits a cache line with normal data.
        assert addr.PAGE_SIZE % addr.LINE_SIZE == 0


class TestVpn:
    def test_zero(self):
        assert addr.vpn(0) == 0

    def test_within_first_page(self):
        assert addr.vpn(4095) == 0

    def test_second_page(self):
        assert addr.vpn(4096) == 1

    def test_page_offset(self):
        # vpn drops exactly the 12-bit page offset.
        assert 0x1234 - (addr.vpn(0x1234) << addr.PAGE_SHIFT) == 0x234

    def test_huge_vpn(self):
        # A 2 MB page spans 512 VPNs: its number is the VPN >> 9.
        shift = addr.HUGE_PAGE_SHIFT - addr.PAGE_SHIFT
        assert addr.vpn(addr.HUGE_PAGE_SIZE) >> shift == 1
        assert addr.vpn(addr.HUGE_PAGE_SIZE - 1) >> shift == 0

    def test_vpn_to_vaddr_roundtrip(self):
        assert addr.vpn(12345 << addr.PAGE_SHIFT) == 12345

    @given(VADDRS)
    def test_vpn_offset_recompose(self, vaddr):
        page = addr.vpn(vaddr)
        offset = vaddr & (addr.PAGE_SIZE - 1)
        assert (page << addr.PAGE_SHIFT) + offset == vaddr


class TestLevelIndex:
    def test_level1_is_low_bits(self):
        assert addr.level_index(0b111_000000001, 1) == 1

    def test_level_extraction_known_value(self, make_vpn):
        page = make_vpn(3, 7, 500, 511)
        assert addr.level_index(page, 4) == 3
        assert addr.level_index(page, 3) == 7
        assert addr.level_index(page, 2) == 500
        assert addr.level_index(page, 1) == 511

    @pytest.mark.parametrize("level", [0, 5, -1])
    def test_invalid_level_rejected(self, level):
        with pytest.raises(ValueError):
            addr.level_index(0, level)

    @given(VPNS)
    def test_make_vpn_roundtrip(self, make_vpn, page):
        indices = [addr.level_index(page, lv) for lv in (4, 3, 2, 1)]
        assert make_vpn(*indices) == page

    def test_make_vpn_range_check(self, make_vpn):
        with pytest.raises(ValueError):
            make_vpn(512, 0, 0, 0)


class TestFlatIndex:
    def test_flat_index_is_18_bits(self):
        assert addr.flat_index((1 << 18) - 1) == (1 << 18) - 1
        assert addr.flat_index(1 << 18) == 0

    @given(VPNS)
    def test_flat_index_merges_pl2_pl1(self, page):
        # Fig. 9: the flattened index is exactly PL2 || PL1.
        expected = (addr.level_index(page, 2) << 9) \
            | addr.level_index(page, 1)
        assert addr.flat_index(page) == expected

    @given(VPNS)
    def test_flat_tag_plus_index_recompose(self, page):
        # The index is the low 18 bits; the bits above pick the node.
        tag = page >> addr.FLAT_LEVEL_BITS
        assert (tag << addr.FLAT_LEVEL_BITS) | addr.flat_index(page) \
            == page


class TestAlignment:
    def test_align_up(self):
        assert addr.align_up(4097, 4096) == 8192

    def test_align_up_exact(self):
        assert addr.align_up(8192, 4096) == 8192

    @given(st.integers(min_value=0, max_value=1 << 50),
           st.sampled_from([64, 4096, 2 * 1024 * 1024]))
    def test_align_invariants(self, value, alignment):
        up = addr.align_up(value, alignment)
        assert value <= up < value + alignment
        assert up % alignment == 0


class Regions(Workload):
    """A workload that is only a fixed region layout."""

    name = "regions"

    def __init__(self, regions):
        super().__init__()
        self._regions = regions

    def regions(self):
        return self._regions

    def _chunk(self, rng, num_refs, state):
        raise NotImplementedError


class TestRanges:
    """VPN ranges of byte regions (:meth:`Workload.page_ranges`, the
    Fig. 8 occupancy input) and line numbers of addresses."""

    def test_pages_in_range_single(self):
        assert Regions([Region("r", 0, 1)]).page_ranges() == [(0, 0)]

    def test_pages_in_range_spanning(self):
        assert Regions([Region("r", 4000, 200)]).page_ranges() \
            == [(0, 1)]

    def test_pages_in_range_empty(self):
        assert Regions([]).page_ranges() == []

    def test_line_of(self):
        _, lines = chunk_probe_keys(np.array([63, 64]))
        assert lines == [0, 1]

    def test_is_canonical(self):
        # The simulated user address space is 48 bits: the VPN keeps
        # exactly the 36 bits above the page offset.
        assert addr.vpn((1 << 48) - 1) == (1 << 36) - 1
        assert addr.vpn(1 << 48) == 0
