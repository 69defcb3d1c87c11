"""Derived metrics over :class:`~repro.sim.runner.RunResult` sets."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping

from repro.sim.runner import RunResult
from repro.sim.stats import geometric_mean


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (0.0 for empty input)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def speedup_table(results_by_workload: Mapping[str, Mapping[str, RunResult]],
                  baseline: str = "radix") -> Dict[str, Dict[str, float]]:
    """Per-workload speedups of every mechanism over ``baseline``.

    Input maps workload -> mechanism -> RunResult (one paper figure's
    raw data); output maps workload -> mechanism -> speedup.  A cell
    quarantined by a keep-going sweep arrives as ``None`` and yields
    NaN — an explicit hole in the figure, not a crash; a missing
    baseline holes its whole row.
    """
    table: Dict[str, Dict[str, float]] = {}
    for workload, by_mechanism in results_by_workload.items():
        base = by_mechanism.get(baseline)
        row: Dict[str, float] = {}
        for mechanism, result in by_mechanism.items():
            if result is None or base is None:
                row[mechanism] = float("nan")
            else:
                row[mechanism] = result.speedup_over(base)
        table[workload] = row
    return table


def average_speedups(table: Mapping[str, Mapping[str, float]],
                     geo: bool = False) -> Dict[str, float]:
    """Across-workload average speedup per mechanism (figure 'AVG' bar).

    NaN cells (quarantined sweep cells) are excluded from the average
    rather than poisoning it.
    """
    mechanisms: List[str] = sorted(
        {m for row in table.values() for m in row})
    averages = {}
    for mechanism in mechanisms:
        values = [row[mechanism] for row in table.values()
                  if mechanism in row and row[mechanism] == row[mechanism]]
        averages[mechanism] = (
            geometric_mean(values) if geo else mean(values))
    return averages
