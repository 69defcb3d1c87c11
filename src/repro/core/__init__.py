"""NDPage's contribution: flattened page table and mechanism specs."""

from repro.core.flattened import FlattenedPageTable
from repro.core.mechanisms import (
    MECHANISMS,
    PAPER_MECHANISMS,
    MechanismSpec,
    get_mechanism,
)

__all__ = [
    "FlattenedPageTable",
    "MECHANISMS",
    "MechanismSpec",
    "PAPER_MECHANISMS",
    "get_mechanism",
]
