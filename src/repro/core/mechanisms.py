"""Address-translation mechanism registry (Section VI).

Each :class:`MechanismSpec` is plain data naming everything that
distinguishes one of the paper's evaluated mechanisms: which page-table
class backs the walk, whether PTE reads bypass the NDP L1, which levels
get page-walk caches, and how the OS backs memory:

* ``radix``    — conventional 4-level x86-64 table (baseline).
* ``ech``      — elastic cuckoo hash table, parallel probes.
* ``hugepage`` — radix + transparent 2 MB pages.
* ``ndpage``   — flattened L2/L1 table + metadata L1 bypass + PWCs
  (this paper).
* ``ideal``    — zero-latency translation upper bound.

NDPage's first mechanism (Section V-A) sends every PTE read of a walk
past the L1: the OS marks page-table regions and the hardware issues
non-caching loads for them.  Because the NDP system has a single cache
level, bypassing cannot violate multi-level inclusion.  The walker
takes the spec's ``bypass_ptes`` flag and applies it to every read.

Ablation variants decompose NDPage's two mechanisms so their individual
contributions can be measured (``benchmarks/test_ablation_ndpage.py``
runs them): ``ndpage-bypass-only``, ``ndpage-flatten-only``,
``ndpage-nopwc`` and ``ndpage-flatten-upper``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from repro.core.flattened import FlattenedPageTable
from repro.core.flattened_upper import UpperFlattenedPageTable
from repro.vm.base import PageTable
from repro.vm.cuckoo import ElasticCuckooPageTable
from repro.vm.frames import FrameAllocator
from repro.vm.ideal import IdealPageTable
from repro.vm.os_model import PagingPolicy
from repro.vm.radix import RadixPageTable


@dataclass(frozen=True)
class MechanismSpec:
    """Recipe for building one translation mechanism: ``table`` builds
    a tenant's page table from the frame allocator, and every PTE read
    of a walk bypasses the L1 when ``bypass_ptes`` is set."""

    key: str
    label: str
    table: Callable[[FrameAllocator], PageTable]
    bypass_ptes: bool
    pwc_levels: Tuple[str, ...]
    paging_policy: PagingPolicy = PagingPolicy.SMALL
    ideal: bool = False


RADIX_PWC_LEVELS = ("PL4", "PL3", "PL2", "PL1")
NDPAGE_PWC_LEVELS = ("PL4", "PL3", "PL2/1")

MECHANISMS = {spec.key: spec for spec in (
    MechanismSpec("radix", "Radix (4-level x86-64)",
                  RadixPageTable, False, RADIX_PWC_LEVELS),
    MechanismSpec("ech", "Elastic Cuckoo Hash Table",
                  ElasticCuckooPageTable, False, ()),
    MechanismSpec("hugepage", "Huge Page (2MB THP)",
                  RadixPageTable, False, RADIX_PWC_LEVELS,
                  paging_policy=PagingPolicy.HUGE),
    MechanismSpec("ndpage", "NDPage (this paper)",
                  FlattenedPageTable, True, NDPAGE_PWC_LEVELS),
    MechanismSpec("ideal", "Ideal (zero-latency translation)",
                  IdealPageTable, False, (), ideal=True),
    # --- ablations ---------------------------------------------------------
    MechanismSpec("ndpage-bypass-only", "Radix + metadata L1 bypass",
                  RadixPageTable, True, RADIX_PWC_LEVELS),
    MechanismSpec("ndpage-flatten-only", "Flattened L2/L1, PTEs cacheable",
                  FlattenedPageTable, False, NDPAGE_PWC_LEVELS),
    MechanismSpec("ndpage-nopwc", "NDPage without page-walk caches",
                  FlattenedPageTable, True, ()),
    MechanismSpec("ndpage-flatten-upper",
                  "Flatten PL3/PL2 instead (counterfactual)",
                  UpperFlattenedPageTable, True, ("PL4", "PL3/2", "PL1")),
)}

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
