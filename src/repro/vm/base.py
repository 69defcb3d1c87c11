"""Abstract page-table interface shared by every translation mechanism.

A page table in this simulator answers three questions:

1. *Functional*: what physical frame backs this VPN (``lookup``)?
2. *Structural*: which physical PTE addresses would a hardware walker
   touch, in what order (``walk_info_decorated``, the *walk plan* the
   walker runs)?  A plan is flat, one PTE read per sequential level
   (radix levels), or staged: a tuple of stages whose reads happen in
   parallel (elastic-cuckoo ways).
3. *Spatial*: how full is each level (``occupancy``), the paper's
   Fig. 8 evidence for flattening.

The walker (:mod:`repro.mmu.walker`) times a plan's steps as memory
requests; page tables themselves are timing-free.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, NamedTuple, Optional, Tuple

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


class MappingError(Exception):
    """Raised on invalid map/unmap operations."""


class PageTable(ABC):
    """Interface implemented by radix, flattened, cuckoo and ideal tables."""

    #: Ordered labels of the levels a walk reads, root first.  The
    #: walker resolves each level's treatment (bypass, PWC) from them
    #: once, at construction.  An elastic cuckoo table names its ways
    #: per instance; the ideal table, which reads nothing, names none.
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
    def walk_info_decorated(self, page: int, level_info: dict):
        """The walker's plan and translation for ``page``, with the
        walker's per-level treatment baked into each step; None when
        the page is unmapped.

        ``level_info`` maps every name in :attr:`level_names` to
        ``(bypass_flag, pwc_or_None)``.  Returns ``(flat, staged,
        translation)``, each step a ``(pte_paddr, bypass_flag, pwc,
        pwc_prefix)`` tuple:

        * a pointer-chasing walk (the radix family) is *flat*:
          ``flat`` holds one step per sequential level, root first,
          and ``staged`` is None;
        * a walk of parallel probes (elastic-cuckoo ways) is
          *staged*: ``flat`` is None and ``staged`` is a tuple of
          stages, each a tuple of steps that overlap.

        ``pwc_prefix`` is the translation prefix that tags the level's
        page-walk cache entry (each level has its own cache), or None
        where a level has no prefix.  The walker calls this on every
        walk, so a table resolves the plan in one descent.
        """

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
