"""Tests for the workload registry (Table II)."""

import pytest

from repro.workloads.registry import (
    ALL_WORKLOADS,
    make_workload,
    workload_table,
)


class TestRegistry:
    def test_eleven_workloads(self):
        assert len(ALL_WORKLOADS) == 11

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_all_constructible(self, name):
        wl = make_workload(name, scale=1 / 64)
        assert wl.name == name
        assert wl.footprint_bytes() > 0

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_workload("spec2006")

    def test_case_insensitive(self):
        assert make_workload("BFS", scale=1 / 64).name == "bfs"

    def test_table2_suites(self):
        table = workload_table(scale=1 / 64)
        suites = {row["suite"] for row in table}
        assert suites == {"GraphBIG", "XSBench", "GUPS", "DLRM",
                          "GenomicsBench"}

    def test_table2_dataset_sizes(self):
        by_name = {row["name"]: row for row in workload_table(1 / 64)}
        assert by_name["xs"]["dataset_gb"] == pytest.approx(9)
        assert by_name["rnd"]["dataset_gb"] == pytest.approx(10)
        assert by_name["dlrm"]["dataset_gb"] == pytest.approx(10)
        assert by_name["gen"]["dataset_gb"] == pytest.approx(33)
        assert by_name["bfs"]["dataset_gb"] == pytest.approx(8)
