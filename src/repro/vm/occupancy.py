"""Page-table occupancy analysis (Fig. 8, key observation 2).

:func:`occupancy_report` computes the ratios a live page table reports
(:meth:`~repro.vm.base.PageTable.occupancy`) *analytically* from the
set of mapped VPN ranges, without building any table.  This lets the
Fig. 8 benchmark evaluate occupancy at the paper's full dataset scale
(8-33 GB of mappings) in milliseconds; the equivalence of the two on
small layouts is asserted by property-based tests.

Occupancy at level L is defined as the paper uses it: the fraction of
entries in use across the *allocated* nodes of that level (an
unallocated subtree consumes no entries and no space).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.vm.address import ENTRIES_PER_NODE, FLAT_ENTRIES, LEVEL_BITS

PageRange = Tuple[int, int]  # (first_vpn, last_vpn), inclusive


def normalize_ranges(ranges: Iterable[PageRange]) -> List[PageRange]:
    """Sort and merge overlapping/adjacent VPN ranges."""
    ordered = sorted((lo, hi) for lo, hi in ranges)
    merged: List[PageRange] = []
    for lo, hi in ordered:
        if lo > hi:
            raise ValueError(f"inverted range ({lo}, {hi})")
        if merged and lo <= merged[-1][1] + 1:
            prev_lo, prev_hi = merged[-1]
            merged[-1] = (prev_lo, max(prev_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


def _count_units(merged: List[PageRange], unit: int) -> int:
    """Distinct ``unit``-sized aligned groups touched by the ranges.

    Ranges must be normalized.  Disjoint page ranges can still share a
    group, so group intervals are re-merged before counting.
    """
    total = 0
    current_lo = current_hi = None
    for lo, hi in merged:
        glo, ghi = lo // unit, hi // unit
        if current_hi is not None and glo <= current_hi:
            current_hi = max(current_hi, ghi)
        else:
            if current_hi is not None:
                total += current_hi - current_lo + 1
            current_lo, current_hi = glo, ghi
    if current_hi is not None:
        total += current_hi - current_lo + 1
    return total


def level_occupancy_from_ranges(ranges: Iterable[PageRange],
                                level: int) -> float:
    """Occupancy of radix level ``level`` (1..4) for mapped ``ranges``."""
    if not 1 <= level <= 4:
        raise ValueError(f"level must be 1..4, got {level}")
    merged = normalize_ranges(ranges)
    if not merged:
        return 0.0
    entry_span = ENTRIES_PER_NODE ** (level - 1)
    node_span = ENTRIES_PER_NODE ** level
    entries = _count_units(merged, entry_span)
    nodes = _count_units(merged, node_span)
    return entries / (nodes * ENTRIES_PER_NODE)


def flattened_occupancy_from_ranges(ranges: Iterable[PageRange]) -> float:
    """Occupancy a flattened PL2/1 node set would show for ``ranges``."""
    merged = normalize_ranges(ranges)
    if not merged:
        return 0.0
    entries = _count_units(merged, 1)
    nodes = _count_units(merged, 1 << (2 * LEVEL_BITS))
    return entries / (nodes * FLAT_ENTRIES)


def occupancy_report(ranges: Iterable[PageRange]) -> Dict[str, float]:
    """Fig. 8 row for one workload: PL1..PL4 plus combined PL2/1."""
    merged = normalize_ranges(ranges)
    report = {
        f"PL{level}": level_occupancy_from_ranges(merged, level)
        for level in (1, 2, 3, 4)
    }
    report["PL2/1"] = flattened_occupancy_from_ranges(merged)
    return report
