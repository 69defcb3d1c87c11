"""Virtual-memory substrate: addresses, frames, page tables, OS model."""

from repro.vm import address
from repro.vm.base import (
    MappingError,
    PageTable,
    Translation,
)
from repro.vm.cuckoo import ElasticCuckooPageTable
from repro.vm.frames import (
    FRAMES_PER_BLOCK,
    FrameAllocator,
    OutOfMemoryError,
)
from repro.vm.ideal import IdealPageTable
from repro.vm.occupancy import (
    flattened_occupancy_from_ranges,
    level_occupancy_from_ranges,
    normalize_ranges,
    occupancy_report,
)
from repro.vm.os_model import (
    FaultCosts,
    OSMemoryManager,
    PagingPolicy,
)
from repro.vm.radix import RadixPageTable

__all__ = [
    "ElasticCuckooPageTable",
    "FRAMES_PER_BLOCK",
    "FaultCosts",
    "FrameAllocator",
    "IdealPageTable",
    "MappingError",
    "OSMemoryManager",
    "OutOfMemoryError",
    "PageTable",
    "PagingPolicy",
    "RadixPageTable",
    "Translation",
    "address",
    "flattened_occupancy_from_ranges",
    "level_occupancy_from_ranges",
    "normalize_ranges",
    "occupancy_report",
]
