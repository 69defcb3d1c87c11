"""Request kinds.

The distinction the paper leans on throughout is *normal data* versus
*metadata* (PTE) traffic: NDPage's first mechanism treats the two
differently at the L1 cache (Section V-A).  Every request in the
simulator therefore carries a kind so caches, DRAM and statistics can
attribute traffic correctly.

The memory entry points (``Cache.access_fast``,
``MemoryHierarchy.access_fast``, ``DramModel.access_fast``) take the
kind as a small integer code (:data:`KIND_DATA`, :data:`KIND_METADATA`,
:data:`KIND_INSTRUCTION`) next to an ``is_write`` flag, all plain
positional ints; :class:`RequestKind` is the readable form statistics
are reported under.
"""

from __future__ import annotations

import enum


class RequestKind(enum.Enum):
    """What a memory request is fetching."""

    DATA = "data"          # the program's own loads/stores
    METADATA = "metadata"  # page-table entries touched by a walk
    INSTRUCTION = "instruction"


#: Integer kind codes taken by the memory entry points.
KIND_DATA = 0
KIND_METADATA = 1
KIND_INSTRUCTION = 2

#: kind code -> RequestKind.
KIND_BY_INDEX = (RequestKind.DATA, RequestKind.METADATA,
                 RequestKind.INSTRUCTION)
