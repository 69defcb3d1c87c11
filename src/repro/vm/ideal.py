"""Ideal translation (mechanism (4) in Section VI).

Every translation request hits a zero-latency L1 TLB: no page-table
memory traffic exists at all.  This bounds what any translation
mechanism could achieve and anchors the top of Figs. 12-14.

Functionally a dict.  An MMU configured with the IDEAL mechanism takes
every translation from the OS model's ``ensure_translated`` (hence
:meth:`IdealPageTable.lookup`) at zero latency and never walks; the
walk plan, were one asked for, reads nothing.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.vm.address import PAGE_SHIFT
from repro.vm.base import MappingError, PageTable, Translation


class IdealPageTable(PageTable):
    """Perfect translation oracle with no physical footprint.

    Accepts (and ignores) an allocator so it is constructible through
    the same mechanism-spec factory as the real tables.
    """

    def __init__(self, allocator=None):
        del allocator  # no physical structures exist
        self._mappings: Dict[int, Translation] = {}

    def lookup(self, page: int) -> Optional[Translation]:
        return self._mappings.get(page)

    def map_page(self, page: int, pfn: int,
                 page_shift: int = PAGE_SHIFT) -> None:
        if page_shift != PAGE_SHIFT:
            raise MappingError("ideal table tracks 4 KB mappings only")
        if page in self._mappings:
            raise MappingError(f"page {page:#x} already mapped")
        self._mappings[page] = tuple.__new__(Translation,
                                             (pfn, PAGE_SHIFT))

    def unmap_page(self, page: int) -> None:
        if page not in self._mappings:
            raise MappingError(f"page {page:#x} not mapped")
        del self._mappings[page]

    def walk_info_decorated(self, page: int):
        """An empty flat plan: no page-table memory exists to read."""
        translation = self._mappings.get(page)
        return None if translation is None else ((), None, translation)

    def occupancy(self) -> Dict[str, float]:
        return {}

    def table_bytes(self) -> int:
        return 0
