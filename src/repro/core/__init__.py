"""NDPage's contribution: flattened page table, metadata bypass, specs."""

from repro.core.bypass import BypassPolicy, MetadataBypass, NoBypass
from repro.core.flattened import FlattenedPageTable
from repro.core.mechanisms import (
    MECHANISMS,
    PAPER_MECHANISMS,
    MechanismSpec,
    get_mechanism,
)

__all__ = [
    "BypassPolicy",
    "FlattenedPageTable",
    "MECHANISMS",
    "MechanismSpec",
    "MetadataBypass",
    "NoBypass",
    "PAPER_MECHANISMS",
    "get_mechanism",
]
