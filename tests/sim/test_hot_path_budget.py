"""Executed-bytecode budgets of the simulation's two hot phases.

A ``sys.settrace`` opcode tracer counts the bytecode instructions that
``System.run()`` executes, per ``repro`` module, and divides by the
simulated references.  A second budget traces ``System(config)`` --
build and warmup -- and divides by the warmup's first-touch faults
(calls of the page table's ``map_page``).  The counts repeat exactly
from run to run on one interpreter version, unlike host time, so they
pin each phase's cost where wall-clock runs are too noisy to.
Bytecode differs between CPython releases, so the budgets hold on
3.11 only.

Run with ``-s`` to print the per-module tables::

    PYTHONPATH=src python -m pytest -s tests/sim/test_hot_path_budget.py
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Set, Tuple

import pytest

import repro
from repro.core.mechanisms import PAPER_MECHANISMS
from repro.sim.config import SystemConfig, ndp_config
from repro.sim.system import System
from repro.vm.base import PageTable

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
    "bfs-radix": 957.8,
    "xs-ndpage-2t-2c": 404.6,
    "bfs-radix-4c": 1041.0,
}

#: Measured ``System(config)`` bytecodes per first-touch fault on the
#: same slices, plus fig12's ``bc`` row (its five mechanisms at 3,000
#: references, scale 1, seed 42).  A change that adds per-touch or
#: per-fault work to the build fails the test.
SETUP_BUDGETS = {
    "bfs-radix": 153.7,
    "xs-ndpage-2t-2c": 140.0,
    "bfs-radix-4c": 138.0,
    "fig12-bc": 210.9,
}

#: Slack over the measured figure before the test fails.
TOLERANCE = 0.01


def _map_page_codes() -> Set[object]:
    """Code objects of every page table's ``map_page``: a first-touch
    fault, 4 KB or 2 MB, maps its page with one call."""
    codes, todo = set(), [PageTable]
    while todo:
        cls = todo.pop()
        if "map_page" in vars(cls):
            codes.add(vars(cls)["map_page"].__code__)
        todo.extend(cls.__subclasses__())
    return codes


_MAP_PAGE_CODES = _map_page_codes()


def _traced(action: Callable[[], object]) -> Tuple[Dict[str, int], int]:
    """Run ``action()`` under the opcode tracer; return its bytecodes
    by module and its calls of a page table's ``map_page``.

    Modules are paths relative to the ``repro`` package; code outside
    it (the standard library, numpy) is counted under ``"other"``.
    """
    by_file: Counter = Counter()
    faults = 0

    def local(frame, event, arg):
        if event == "opcode":
            by_file[frame.f_code.co_filename] += 1
        return local

    def on_call(frame, event, arg):
        nonlocal faults
        if frame.f_code in _MAP_PAGE_CODES:
            faults += 1
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        action()
    finally:
        sys.settrace(previous)
    by_module: Counter = Counter()
    for filename, count in by_file.items():
        if filename.startswith(_PACKAGE):
            by_module[filename[len(_PACKAGE):]] += count
        else:
            by_module["other"] += count
    return dict(by_module), faults


def trace_bytecodes(refs_per_core: int = 2000, seed: int = 42,
                    scale: float = 0.05, **config
                    ) -> Tuple[int, Dict[str, int]]:
    """``(references, bytecodes by module)`` of one ``System.run()``."""
    system = System(ndp_config(refs_per_core=refs_per_core, seed=seed,
                               scale=scale, **config))
    by_module, _ = _traced(system.run)
    references = sum(core.stats.references for core in system.cores)
    return references, by_module


def setup_configs(name: str) -> List[SystemConfig]:
    """The configs whose builds a setup budget traces."""
    if name == "fig12-bc":
        return [ndp_config(workload="bc", mechanism=mechanism,
                           refs_per_core=3000, scale=1.0, seed=42)
                for mechanism in PAPER_MECHANISMS]
    return [ndp_config(refs_per_core=2000, seed=42, scale=0.05,
                       **WORKLOADS[name])]


def trace_setup(configs: List[SystemConfig]
                ) -> Tuple[int, Dict[str, int]]:
    """``(first-touch faults, bytecodes by module)`` of building a
    ``System`` from each config.

    Each config is built once untraced first, so one-time library
    set-up on a process's first build (about 32,000 bytecodes outside
    ``repro``) does not depend on test order.
    """
    total: Counter = Counter()
    faults = 0
    for config in configs:
        System(config)
        by_module, count = _traced(lambda: System(config))
        total.update(by_module)
        faults += count
    return faults, dict(total)


def format_table(name: str, units: int, by_module: Dict[str, int],
                 unit: str = "references") -> str:
    """Per-module bytecodes per unit, largest first (modules under 0.05
    per unit are left out of the rows, not the total)."""
    rows = sorted(by_module.items(), key=lambda item: -item[1])
    lines = [f"{name}: {units} {unit}"]
    for module, count in rows:
        if count / units >= 0.05:
            lines.append(f"  {module:<28} {count / units:8.1f}")
    total = sum(by_module.values())
    lines.append(f"  {'total':<28} {total / units:8.1f}")
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


@pytest.mark.parametrize("name", sorted(SETUP_BUDGETS))
def test_setup_bytecodes_per_fault_within_budget(name):
    faults, by_module = trace_setup(setup_configs(name))
    print()
    print(format_table(name, faults, by_module, unit="first-touch faults"))
    per_fault = sum(by_module.values()) / faults
    budget = SETUP_BUDGETS[name]
    assert per_fault <= budget * (1 + TOLERANCE), (
        f"{name}: {per_fault:.1f} setup bytecodes per first-touch fault, "
        f"budget {budget} (+{TOLERANCE:.0%})")
