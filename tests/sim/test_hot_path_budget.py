"""Executed-bytecode budget of the per-reference simulation path.

A ``sys.settrace`` opcode tracer counts the bytecode instructions that
``System.run()`` executes, per ``repro`` module, and divides by the
simulated references.  The counts repeat exactly from run to run on one
interpreter version, unlike host time, so they pin the hot path's cost
where wall-clock runs are too noisy to.  Bytecode differs between
CPython releases, so the budgets hold on 3.11 only.

Run with ``-s`` to print the per-module table::

    PYTHONPATH=src python -m pytest -s tests/sim/test_hot_path_budget.py
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path
from typing import Dict, Tuple

import pytest

import repro
from repro.sim.config import ndp_config
from repro.sim.system import System

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="bytecode counts are specific to CPython 3.11")

_PACKAGE = str(Path(repro.__file__).resolve().parent) + "/"

#: Slices traced by the budget tests: the single-core and the
#: multi-tenant perfbench workloads, and ``bfs-radix-4c`` (the
#: ``scripts/bench.py`` row) for the plain multi-core engine.
WORKLOADS = {
    "bfs-radix": dict(workload="bfs", mechanism="radix", num_cores=1),
    "xs-ndpage-2t-2c": dict(workload="xs", mechanism="ndpage",
                            num_cores=2, tenants=2),
    "bfs-radix-4c": dict(workload="bfs", mechanism="radix", num_cores=4),
}

#: Measured bytecodes per reference on a 2,000-reference slice per
#: core (seed 42, scale 0.05).  A change that adds per-reference work
#: fails the test; one that removes work should lower the figure.
BUDGETS = {
    "bfs-radix": 1006.1,
    "xs-ndpage-2t-2c": 416.5,
    "bfs-radix-4c": 1095.1,
}

#: Slack over the measured figure before the test fails.
TOLERANCE = 0.01


def trace_bytecodes(refs_per_core: int = 2000, seed: int = 42,
                    scale: float = 0.05, **config
                    ) -> Tuple[int, Dict[str, int]]:
    """``(references, bytecodes by module)`` of one ``System.run()``.

    Modules are paths relative to the ``repro`` package; code outside
    it (the standard library, numpy) is counted under ``"other"``.
    """
    system = System(ndp_config(refs_per_core=refs_per_core, seed=seed,
                               scale=scale, **config))
    by_file: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            by_file[frame.f_code.co_filename] += 1
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        system.run()
    finally:
        sys.settrace(previous)
    references = sum(core.stats.references for core in system.cores)
    by_module: Counter = Counter()
    for filename, count in by_file.items():
        if filename.startswith(_PACKAGE):
            by_module[filename[len(_PACKAGE):]] += count
        else:
            by_module["other"] += count
    return references, dict(by_module)


def format_table(name: str, references: int,
                 by_module: Dict[str, int]) -> str:
    """Per-module bytecodes per reference, largest first (modules
    under 0.05 per reference are left out of the rows, not the total)."""
    rows = sorted(by_module.items(), key=lambda item: -item[1])
    lines = [f"{name}: {references} references"]
    for module, count in rows:
        if count / references >= 0.05:
            lines.append(f"  {module:<28} {count / references:8.1f}")
    total = sum(by_module.values())
    lines.append(f"  {'total':<28} {total / references:8.1f}")
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_bytecodes_per_reference_within_budget(name):
    references, by_module = trace_bytecodes(**WORKLOADS[name])
    print()
    print(format_table(name, references, by_module))
    per_ref = sum(by_module.values()) / references
    budget = BUDGETS[name]
    assert per_ref <= budget * (1 + TOLERANCE), (
        f"{name}: {per_ref:.1f} bytecodes per reference, budget "
        f"{budget} (+{TOLERANCE:.0%})")
