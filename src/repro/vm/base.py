"""Abstract page-table interface shared by every translation mechanism.

A page table in this simulator answers three questions:

1. *Functional*: what physical frame backs this VPN (``lookup``)?
2. *Structural*: which physical PTE addresses would a hardware walker
   touch, in what order (``walk_stages``)?  Stages are a list of groups;
   groups are sequential (radix levels), the accesses *within* a group
   happen in parallel (elastic-cuckoo ways).
3. *Spatial*: how full is each level (``occupancy``), the paper's
   Fig. 8 evidence for flattening.

The walker (:mod:`repro.mmu.walker`) turns stages into timed memory
requests; page tables themselves are timing-free.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.vm.address import PAGE_SHIFT


class Translation(NamedTuple):
    """Result of a successful lookup.

    Map sites build it as ``tuple.__new__(Translation, (pfn, shift))``,
    which skips the NamedTuple's Python-level ``__new__`` frame.
    """

    pfn: int         # physical frame number at ``page_shift`` granularity
    page_shift: int  # 12 for 4 KB mappings, 21 for 2 MB mappings

    def paddr(self, vaddr: int) -> int:
        """Physical address of ``vaddr`` under this translation."""
        offset = vaddr & ((1 << self.page_shift) - 1)
        return (self.pfn << self.page_shift) | offset


class WalkStage(NamedTuple):
    """One PTE access a hardware walker would perform."""

    level: str                       # 'PL4', 'PL3', 'PL2', 'PL1',
    #                                  'PL2/1' (flattened), 'ECH-wayN'
    pte_paddr: int                   # physical address of the PTE
    pwc_key: Optional[Tuple[str, int]]  # page-walk-cache tag, or None


class MappingError(Exception):
    """Raised on invalid map/unmap operations."""


class PageTable(ABC):
    """Interface implemented by radix, flattened, cuckoo and ideal tables."""

    #: Ordered level labels, root first (empty for hash-based tables).
    level_names: Tuple[str, ...] = ()

    @abstractmethod
    def lookup(self, page: int) -> Optional[Translation]:
        """Translate 4 KB-granularity VPN ``page``; None if unmapped."""

    @abstractmethod
    def map_page(self, page: int, pfn: int,
                 page_shift: int = PAGE_SHIFT) -> None:
        """Install a mapping.  ``page`` is always a 4 KB-granularity VPN;
        a 2 MB mapping covers the whole aligned group containing it."""

    @abstractmethod
    def unmap_page(self, page: int) -> None:
        """Remove a mapping (raises MappingError if absent)."""

    @abstractmethod
    def walk_stages(self, page: int) -> List[List[WalkStage]]:
        """PTE accesses for a walk of ``page``.

        Requires the page to be mapped (the MMU resolves faults before
        walking).  Outer list = sequential stages; inner list = parallel
        accesses within the stage.
        """

    def walk_info_decorated(self, page: int, level_info: dict, resolve):
        """The walker's plan and translation for ``page``, with the
        walker's per-level treatment baked into each step.

        ``level_info`` maps a level name to ``(bypass_flag,
        pwc_or_None)``.  It holds every name in :attr:`level_names`
        before the first walk, so overrides may index it directly;
        ``resolve(level)`` computes-and-caches any other level (e.g.
        cuckoo ways).  Returns ``(flat, staged, translation)``:

        * when every stage is a single step (radix-family tables) the
          plan is *flat*: ``flat`` is a tuple of ``(pte_paddr,
          bypass_flag, pwc, pwc_prefix, level)`` steps — one per
          sequential stage — and ``staged`` is None;
        * otherwise (parallel probes, e.g. cuckoo ways) ``flat`` is
          None and ``staged`` is a tuple of stages, each a tuple of
          such steps.

        ``pwc_prefix`` is the integer half of ``WalkStage.pwc_key``
        (each level has its own walk cache, so the level string in the
        key is redundant).  The default derives the plan from
        :meth:`lookup` and :meth:`walk_stages`; walkers call this on
        every walk, so hot tables override it with a single descent.
        None when the page is unmapped.
        """
        translation = self.lookup(page)
        if translation is None:
            return None
        staged = []
        flat = True
        for stage in self.walk_stages(page):
            steps = []
            for step in stage:
                deco = level_info.get(step.level)
                if deco is None:
                    deco = resolve(step.level)
                key = step.pwc_key
                steps.append((step.pte_paddr, deco[0], deco[1],
                              key[-1] if key is not None else None,
                              step.level))
            if len(steps) != 1:
                flat = False
            staged.append(tuple(steps))
        if flat:
            return tuple(stage[0] for stage in staged), None, translation
        return None, tuple(staged), translation

    @abstractmethod
    def occupancy(self) -> Dict[str, float]:
        """Mean fraction of used entries per allocated node, per level."""

    @abstractmethod
    def table_bytes(self) -> int:
        """Physical memory consumed by the table structures themselves."""

    @property
    def mapped_pages(self) -> int:
        """Number of 4 KB-granularity mappings installed (override where
        cheaper bookkeeping exists)."""
        raise NotImplementedError
