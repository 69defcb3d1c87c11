"""Table II workload registry.

Maps the paper's workload keys to generator classes and carries the
Table II metadata (suite, dataset size).  ``make_workload`` is the one
constructor the simulator and benchmarks use.
"""

from __future__ import annotations

from typing import Dict, List

from repro.workloads.base import Workload
from repro.workloads.dlrm import DlrmWorkload
from repro.workloads.genomics import GenomicsWorkload
from repro.workloads.graphbig import GraphBigWorkload, KERNELS
from repro.workloads.gups import GupsWorkload
from repro.workloads.xsbench import XSBenchWorkload

#: The 11 workload keys in the paper's plotting order.
ALL_WORKLOADS = ("bc", "bfs", "cc", "gc", "pr", "tc", "sp",
                 "xs", "rnd", "dlrm", "gen")


def make_workload(name: str, scale: float = 1.0,
                  seed: int = 42) -> Workload:
    """Instantiate a Table II workload by key."""
    key = name.lower()
    if key in KERNELS:
        return GraphBigWorkload(key, scale=scale, seed=seed)
    simple = {
        "xs": XSBenchWorkload,
        "rnd": GupsWorkload,
        "dlrm": DlrmWorkload,
        "gen": GenomicsWorkload,
    }
    if key in simple:
        return simple[key](scale=scale, seed=seed)
    raise ValueError(
        f"unknown workload {name!r}; choose from {ALL_WORKLOADS}")


def workload_table(scale: float = 1.0) -> List[Dict]:
    """Table II as data: one row per workload."""
    return [make_workload(name, scale=scale).describe()
            for name in ALL_WORKLOADS]
