"""Address-translation mechanism registry (Section VI).

Each :class:`MechanismSpec` bundles everything that distinguishes one of
the paper's evaluated mechanisms — which page-table structure backs the
walk, whether PTE accesses bypass the NDP L1, which levels get page-walk
caches, and how the OS backs memory:

* ``radix``    — conventional 4-level x86-64 table (baseline).
* ``ech``      — elastic cuckoo hash table, parallel probes.
* ``hugepage`` — radix + transparent 2 MB pages.
* ``ndpage``   — flattened L2/L1 table + metadata L1 bypass + PWCs
  (this paper).
* ``ideal``    — zero-latency translation upper bound.

Ablation variants decompose NDPage's two mechanisms so their individual
contributions can be measured (``benchmarks/test_ablation_ndpage.py``
runs them): ``ndpage-bypass-only``, ``ndpage-flatten-only``,
``ndpage-nopwc``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from repro.core.bypass import BypassPolicy, MetadataBypass, NoBypass
from repro.core.flattened import FlattenedPageTable
from repro.vm.base import PageTable
from repro.vm.cuckoo import ElasticCuckooPageTable
from repro.vm.frames import FrameAllocator
from repro.vm.ideal import IdealPageTable
from repro.vm.os_model import PagingPolicy
from repro.vm.radix import RadixPageTable


@dataclass(frozen=True)
class MechanismSpec:
    """Recipe for building one translation mechanism."""

    key: str
    label: str
    make_table: Callable[[FrameAllocator], PageTable]
    make_bypass: Callable[[], BypassPolicy]
    pwc_levels: Tuple[str, ...]
    paging_policy: PagingPolicy
    ideal: bool = False

    def build_table(self, allocator: FrameAllocator) -> PageTable:
        return self.make_table(allocator)

    def build_bypass(self) -> BypassPolicy:
        return self.make_bypass()


RADIX_PWC_LEVELS = ("PL4", "PL3", "PL2", "PL1")
NDPAGE_PWC_LEVELS = ("PL4", "PL3", "PL2/1")


def _make_upper_flattened(allocator: FrameAllocator) -> PageTable:
    # Imported lazily to keep the core import graph acyclic.
    from repro.core.flattened_upper import UpperFlattenedPageTable
    return UpperFlattenedPageTable(allocator)


def _spec(key: str, label: str, make_table, make_bypass, pwc_levels,
          paging_policy=PagingPolicy.SMALL, ideal=False) -> MechanismSpec:
    return MechanismSpec(key=key, label=label, make_table=make_table,
                         make_bypass=make_bypass, pwc_levels=pwc_levels,
                         paging_policy=paging_policy, ideal=ideal)


MECHANISMS = {
    "radix": _spec(
        "radix", "Radix (4-level x86-64)",
        RadixPageTable, NoBypass, RADIX_PWC_LEVELS),
    "ech": _spec(
        "ech", "Elastic Cuckoo Hash Table",
        ElasticCuckooPageTable, NoBypass, ()),
    "hugepage": _spec(
        "hugepage", "Huge Page (2MB THP)",
        RadixPageTable, NoBypass, RADIX_PWC_LEVELS,
        paging_policy=PagingPolicy.HUGE),
    "ndpage": _spec(
        "ndpage", "NDPage (this paper)",
        FlattenedPageTable, MetadataBypass, NDPAGE_PWC_LEVELS),
    "ideal": _spec(
        "ideal", "Ideal (zero-latency translation)",
        IdealPageTable, NoBypass, (), ideal=True),
    # --- ablations ---------------------------------------------------------
    "ndpage-bypass-only": _spec(
        "ndpage-bypass-only", "Radix + metadata L1 bypass",
        RadixPageTable, MetadataBypass, RADIX_PWC_LEVELS),
    "ndpage-flatten-only": _spec(
        "ndpage-flatten-only", "Flattened L2/L1, PTEs cacheable",
        FlattenedPageTable, NoBypass, NDPAGE_PWC_LEVELS),
    "ndpage-nopwc": _spec(
        "ndpage-nopwc", "NDPage without page-walk caches",
        FlattenedPageTable, MetadataBypass, ()),
    "ndpage-flatten-upper": _spec(
        "ndpage-flatten-upper", "Flatten PL3/PL2 instead (counterfactual)",
        _make_upper_flattened, MetadataBypass,
        ("PL4", "PL3/2", "PL1")),
}

#: The five mechanisms of Figs. 12-14, in the paper's plotting order.
PAPER_MECHANISMS = ("radix", "ech", "hugepage", "ndpage", "ideal")


def get_mechanism(key: str) -> MechanismSpec:
    """Look up a mechanism spec; raises with the valid keys on typos."""
    try:
        return MECHANISMS[key]
    except KeyError:
        raise ValueError(
            f"unknown mechanism {key!r}; choose from {sorted(MECHANISMS)}"
        ) from None
