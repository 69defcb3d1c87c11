"""Tests for the five Table II workload suites."""

import numpy as np
import pytest

from repro.workloads.dlrm import DlrmWorkload
from repro.workloads.genomics import GenomicsWorkload
from repro.workloads.graphbig import KERNELS, GraphBigWorkload
from repro.workloads.gups import GupsWorkload
from repro.workloads.xsbench import XSBenchWorkload

# The per-reference view of a stream lives with the base-class tests.
from test_base import stream

GIB = 1024 ** 3
SCALE = 1 / 64


def region_of(workload, vaddr):
    for region in workload.regions():
        if region.base <= vaddr < region.end:
            return region.name
    return "private"


def histogram(workload, refs=4000, core=0):
    counts = {}
    writes = 0
    for vaddr, is_write in stream(workload, core, refs):
        name = region_of(workload, vaddr)
        counts[name] = counts.get(name, 0) + 1
        writes += is_write
    return counts, writes / refs


class TestGraphBig:
    def test_all_seven_kernels_exist(self):
        assert set(KERNELS) == {"bc", "bfs", "cc", "gc", "pr", "tc", "sp"}

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            GraphBigWorkload("dijkstra")

    def test_dataset_size_matches_table2(self):
        assert GraphBigWorkload("bfs").dataset_bytes == 8 * GIB

    def test_footprint_close_to_dataset(self):
        wl = GraphBigWorkload("bfs", scale=SCALE)
        assert wl.footprint_bytes() == pytest.approx(
            8 * GIB * SCALE, rel=0.1)

    def test_csr_regions_present(self):
        names = {r.name for r in GraphBigWorkload("pr", scale=SCALE).regions()}
        assert {"offsets", "edges", "prop_src", "prop_dst", "aux"} <= names

    def test_stream_touches_all_structures(self):
        wl = GraphBigWorkload("bfs", scale=SCALE)
        counts, _ = histogram(wl)
        for name in ("offsets", "edges", "prop_src"):
            assert counts.get(name, 0) > 0, name

    def test_sweep_kernels_walk_vertices_in_order(self):
        wl = GraphBigWorkload("pr", scale=SCALE)
        offsets = [vaddr for vaddr, _ in stream(wl, 0, 4000)
                   if region_of(wl, vaddr) == "offsets"]
        deltas = np.diff(offsets)
        assert (deltas >= 0).mean() > 0.9  # monotone sweep (mod wrap)

    def test_frontier_kernels_jump_randomly(self):
        wl = GraphBigWorkload("bfs", scale=SCALE)
        offsets = [vaddr for vaddr, _ in stream(wl, 0, 4000)
                   if region_of(wl, vaddr) == "offsets"]
        deltas = np.diff(offsets)
        assert (deltas >= 0).mean() < 0.7

    def test_tc_reads_more_edges(self):
        tc, _ = histogram(GraphBigWorkload("tc", scale=SCALE))
        pr, _ = histogram(GraphBigWorkload("pr", scale=SCALE))
        assert tc["edges"] / sum(tc.values()) \
            > pr["edges"] / sum(pr.values())

    def test_writes_present_except_tc_structure(self):
        _, write_frac = histogram(GraphBigWorkload("bfs", scale=SCALE))
        assert write_frac > 0.05


class TestXSBench:
    def test_dataset_size(self):
        assert XSBenchWorkload().dataset_bytes == 9 * GIB

    def test_grid_size_not_round(self):
        wl = XSBenchWorkload(scale=SCALE)
        assert wl.grid_points % 4096 != 0

    def test_lookup_is_read_only(self):
        wl = XSBenchWorkload(scale=SCALE)
        _, write_frac = histogram(wl)
        assert write_frac < 0.10  # only private-region writes

    def test_binary_search_converges_in_egrid(self):
        wl = XSBenchWorkload(scale=SCALE)
        egrid_hits = 0
        for vaddr, _ in stream(wl, 0, 2000):
            if region_of(wl, vaddr) == "egrid":
                egrid_hits += 1
        assert egrid_hits > 500

    def test_xs_rows_read_sequentially(self):
        wl = XSBenchWorkload(scale=SCALE)
        xs_addrs = [vaddr for vaddr, _ in stream(wl, 0, 2000)
                    if region_of(wl, vaddr) == "xs_data"]
        deltas = np.diff(xs_addrs)
        assert (deltas == 8).sum() > len(deltas) * 0.7


class TestGups:
    def test_dataset_size(self):
        assert GupsWorkload().dataset_bytes == 10 * GIB

    def test_read_modify_write_pairs(self):
        wl = GupsWorkload(scale=SCALE)
        refs = list(stream(wl, 0, 1000))
        pairs = 0
        for (addr_a, write_a), (addr_b, write_b) in zip(refs, refs[1:]):
            if addr_a == addr_b and not write_a and write_b:
                pairs += 1
        assert pairs > 350  # ~45% of adjacent pairs are RMW

    def test_uniform_spread(self):
        wl = GupsWorkload(scale=SCALE)
        table = wl.regions()[0]
        addrs = [v for v, _ in stream(wl, 0, 4000)
                 if table.base <= v < table.end]
        quartile = (np.array(addrs) - table.base) // (table.size // 4)
        counts = np.bincount(quartile.astype(int), minlength=4)
        assert counts.min() > counts.max() * 0.6


class TestDlrm:
    def test_dataset_size(self):
        assert DlrmWorkload().dataset_bytes == 10 * GIB

    def test_embedding_gathers_dominate(self):
        counts, _ = histogram(DlrmWorkload(scale=SCALE))
        assert counts["embeddings"] > sum(counts.values()) * 0.5

    def test_dense_region_is_hot(self):
        wl = DlrmWorkload(scale=SCALE)
        dense = next(r for r in wl.regions() if r.name == "dense")
        assert dense.size <= 2 * 1024 ** 2

    def test_output_writes(self):
        wl = DlrmWorkload(scale=SCALE)
        out = next(r for r in wl.regions() if r.name == "output")
        writes = sum(1 for v, w in stream(wl, 0, 4000)
                     if w and out.base <= v < out.end)
        assert writes > 0


class TestGenomics:
    def test_dataset_size_largest_in_suite(self):
        assert GenomicsWorkload().dataset_bytes == 33 * GIB

    def test_hash_table_dominates_footprint(self):
        wl = GenomicsWorkload(scale=SCALE)
        table = next(r for r in wl.regions() if r.name == "hash_table")
        assert table.size > wl.footprint_bytes() * 0.7

    def test_input_scanned_sequentially(self):
        wl = GenomicsWorkload(scale=SCALE)
        inp = next(r for r in wl.regions() if r.name == "input_seq")
        addrs = [v for v, _ in stream(wl, 0, 2000)
                 if inp.base <= v < inp.end]
        # Private-region redirection removes ~10% of items, so some
        # deltas are 16; the scan is still overwhelmingly sequential.
        deltas = np.diff(addrs)
        assert ((deltas == 8) | (deltas == 16)).mean() > 0.9

    def test_bucket_updates_write(self):
        wl = GenomicsWorkload(scale=SCALE)
        counts, write_frac = histogram(wl)
        assert counts["hash_table"] > sum(counts.values()) * 0.5
        assert write_frac > 0.2
