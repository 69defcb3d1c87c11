"""Abstract page-table interface shared by every translation mechanism.

A page table in this simulator answers three questions:

1. *Functional*: what physical frame backs this VPN (``lookup``)?
2. *Structural*: which physical PTE addresses would a hardware walker
   touch, in what order (``walk_info_decorated``, the *walk plan* the
   walker runs)?  A plan is sequential, one PTE read per level (radix
   levels), or parallel: one probe per way, all overlapping
   (elastic-cuckoo ways).
3. *Spatial*: how full is each level (``occupancy``), the paper's
   Fig. 8 evidence for flattening.

The walker (:mod:`repro.mmu.walker`) times a plan's reads as memory
requests and applies its own treatment to them (L1 bypass, page-walk
caches); page tables themselves are timing-free.
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


class MappingError(Exception):
    """Raised on invalid map/unmap operations."""


class PageTable(ABC):
    """Interface implemented by radix, flattened, cuckoo and ideal tables."""

    #: Ordered labels of the levels a walk reads, root first.  The
    #: walker resolves each level's page-walk cache from them once, at
    #: construction, and pairs it with a sequential plan's steps by
    #: position.  An elastic cuckoo table names its ways per instance;
    #: the ideal table, which reads nothing, names none.
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
    def walk_info_decorated(self, page: int):
        """The walker's plan and translation for ``page`` from one
        descent, or None when the page is unmapped.

        Returns ``(flat, probes, translation)``; exactly one of
        ``flat`` and ``probes`` is a tuple:

        * a pointer-chasing walk (the radix family) is sequential:
          ``flat`` holds one ``(pte_paddr, pwc_prefix)`` step per level
          read, in :attr:`level_names` order (a walk that ends early,
          at a 2 MB leaf, stops short), and ``probes`` is None;
        * a walk of parallel probes (elastic-cuckoo ways) has ``flat``
          None and ``probes`` a tuple of PTE addresses, read at once.

        ``pwc_prefix`` is the translation prefix that tags the level's
        page-walk cache entry (each level has its own cache).  The
        plan says only what the table knows: the walker decides which
        reads bypass the L1 and which levels have a cache.
        """

    @abstractmethod
    def occupancy(self) -> Dict[str, float]:
        """Mean fraction of used entries per allocated node, per level."""

    @abstractmethod
    def table_bytes(self) -> int:
        """Physical memory consumed by the table structures themselves."""
