"""Tests for the mechanism registry (Section VI)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bypass import MetadataBypass, NoBypass
from repro.core.flattened import FlattenedPageTable
from repro.core.mechanisms import (
    MECHANISMS,
    PAPER_MECHANISMS,
    get_mechanism,
)
from repro.vm.cuckoo import ElasticCuckooPageTable
from repro.vm.frames import FrameAllocator
from repro.vm.address import HUGE_PAGE_SHIFT, LEVEL_BITS
from repro.vm.ideal import IdealPageTable
from repro.vm.os_model import PagingPolicy
from repro.vm.radix import RadixPageTable

MIB = 1024 ** 2


class TestRegistry:
    def test_paper_mechanisms_present(self):
        assert set(PAPER_MECHANISMS) <= set(MECHANISMS)

    def test_paper_order(self):
        assert PAPER_MECHANISMS == ("radix", "ech", "hugepage",
                                    "ndpage", "ideal")

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError):
            get_mechanism("tlb-of-theseus")

    @pytest.mark.parametrize("key,table_cls", [
        ("radix", RadixPageTable),
        ("ech", ElasticCuckooPageTable),
        ("hugepage", RadixPageTable),
        ("ndpage", FlattenedPageTable),
        ("ideal", IdealPageTable),
    ])
    def test_table_types(self, key, table_cls):
        spec = get_mechanism(key)
        table = spec.build_table(FrameAllocator(256 * MIB))
        assert isinstance(table, table_cls)

    def test_only_ndpage_bypasses(self):
        assert isinstance(get_mechanism("ndpage").build_bypass(),
                          MetadataBypass)
        for key in ("radix", "ech", "hugepage", "ideal"):
            assert isinstance(get_mechanism(key).build_bypass(),
                              NoBypass)

    def test_only_hugepage_uses_thp(self):
        assert get_mechanism("hugepage").paging_policy \
            is PagingPolicy.HUGE
        for key in ("radix", "ech", "ndpage", "ideal"):
            assert get_mechanism(key).paging_policy is PagingPolicy.SMALL

    def test_only_ideal_is_ideal(self):
        assert get_mechanism("ideal").ideal
        assert not any(get_mechanism(k).ideal
                       for k in ("radix", "ech", "hugepage", "ndpage"))

    def test_pwc_levels(self):
        assert get_mechanism("radix").pwc_levels \
            == ("PL4", "PL3", "PL2", "PL1")
        assert get_mechanism("ndpage").pwc_levels \
            == ("PL4", "PL3", "PL2/1")
        assert get_mechanism("ech").pwc_levels == ()

    def test_ablation_variants(self):
        bypass_only = get_mechanism("ndpage-bypass-only")
        assert isinstance(
            bypass_only.build_table(FrameAllocator(64 * MIB)),
            RadixPageTable)
        assert isinstance(bypass_only.build_bypass(), MetadataBypass)
        flatten_only = get_mechanism("ndpage-flatten-only")
        assert isinstance(flatten_only.build_bypass(), NoBypass)
        assert get_mechanism("ndpage-nopwc").pwc_levels == ()


#: 4 KB pages in four PL4 regions of 4 GB each, so pages share
#: upper-level nodes and PWC prefixes.
SMALL_PAGES = st.builds(lambda region, offset: (region << 27) | offset,
                        st.integers(0, 3), st.integers(0, (1 << 20) - 1))
#: 2 MB-aligned pages in a region of their own (PL4 index 4).
HUGE_PAGES = st.builds(lambda group: (4 << 27) | (group << LEVEL_BITS),
                       st.integers(0, (1 << 18) - 1))
#: A region nothing is mapped in.
UNMAPPED_PAGE = 5 << 27


def structural_plan(table, page, treatment):
    """The ``walk_info_decorated`` result derived from ``walk_stages``
    and ``lookup``: each step ``(pte_paddr, bypass, probe, prefix,
    level)``, flat when every stage is a single step."""
    staged = tuple(
        tuple((step.pte_paddr, *treatment[step.level],
               step.pwc_key[-1] if step.pwc_key is not None else None,
               step.level) for step in stage)
        for stage in table.walk_stages(page))
    translation = table.lookup(page)
    if all(len(stage) == 1 for stage in staged):
        return tuple(stage[0] for stage in staged), None, translation
    return None, staged, translation


class TestLiveWalkPlan:
    """Each table's live walk plan (``walk_info_decorated``, the one
    method the walker calls) against its structural walk: the same PTE
    addresses, levels, PWC prefixes, per-level walker treatment,
    flat-versus-staged shape and translation."""

    @pytest.mark.parametrize("key", sorted(MECHANISMS))
    @given(small=st.lists(SMALL_PAGES, min_size=1, max_size=30,
                          unique=True),
           huge=st.lists(HUGE_PAGES, max_size=4, unique=True),
           offsets=st.lists(st.integers(0, 511), min_size=1,
                            max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_plan_matches_walk_stages(self, key, small, huge, offsets):
        table = get_mechanism(key).build_table(FrameAllocator(1024 * MIB))
        for pfn, page in enumerate(small, start=1):
            table.map_page(page, pfn=pfn)
        walked = list(small)
        if isinstance(table, RadixPageTable):
            for group, page in enumerate(huge, start=1):
                table.map_page(page, pfn=group << LEVEL_BITS,
                               page_shift=HUGE_PAGE_SHIFT)
                walked += [page + offset for offset in offsets]

        # A distinct treatment per level, memoized in ``level_info`` as
        # the walker does: every level the table names up front, any
        # other on first use.
        level_info = {}

        def resolve(level):
            info = (len(level_info) % 2, f"probe-{level}")
            level_info[level] = info
            return info

        for level in table.level_names:
            resolve(level)

        for page in walked:
            live = table.walk_info_decorated(page, level_info, resolve)
            assert live == structural_plan(table, page, level_info)
        assert table.walk_info_decorated(
            UNMAPPED_PAGE, level_info, resolve) is None
