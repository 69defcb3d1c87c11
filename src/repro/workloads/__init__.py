"""Synthetic Table II workload generators."""

from repro.workloads.base import Region, Workload, layout_regions
from repro.workloads.dlrm import DlrmWorkload
from repro.workloads.genomics import GenomicsWorkload
from repro.workloads.graphbig import KERNELS, GraphBigWorkload
from repro.workloads.gups import GupsWorkload
from repro.workloads.registry import (
    ALL_WORKLOADS,
    make_workload,
    workload_table,
)
from repro.workloads.xsbench import XSBenchWorkload

__all__ = [
    "ALL_WORKLOADS",
    "DlrmWorkload",
    "GenomicsWorkload",
    "GraphBigWorkload",
    "GupsWorkload",
    "KERNELS",
    "Region",
    "Workload",
    "XSBenchWorkload",
    "layout_regions",
    "make_workload",
    "workload_table",
]
