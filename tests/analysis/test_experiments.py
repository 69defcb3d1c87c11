"""Smoke tests for the per-figure experiment drivers (tiny parameters)."""

from repro.analysis import experiments

TINY = dict(workloads=("rnd",), refs_per_core=400, scale=1 / 64)


class TestMotivationDrivers:
    def test_ptw_latency_comparison(self):
        table = experiments.ptw_latency_comparison(num_cores=2, **TINY)
        row = table["rnd"]
        assert row["ndp"] > 0
        assert row["cpu"] > 0
        assert "increase" in row

    def test_translation_overhead_comparison(self):
        table = experiments.translation_overhead_comparison(
            num_cores=2, **TINY)
        assert 0 < table["rnd"]["ndp"] <= 1

    def test_core_scaling(self):
        out = experiments.core_scaling(core_counts=(1, 2), **TINY)
        assert set(out) == {"ndp", "cpu"}
        assert set(out["ndp"]) == {1, 2}
        assert out["ndp"][1]["ptw_latency"] > 0


class TestObservationDrivers:
    def test_l1_miss_breakdown(self):
        table = experiments.l1_miss_breakdown(num_cores=1, **TINY)
        row = table["rnd"]
        assert 0 <= row.data_ideal <= 1
        assert 0 <= row.metadata <= 1

    def test_occupancy_study(self):
        table = experiments.occupancy_study(workloads=("rnd",))
        assert table["rnd"]["PL1"] > 0.9

    def test_pte_dram_amplification(self):
        ratio = experiments.pte_dram_amplification(
            workload="bfs", num_cores=2, refs_per_core=4000, scale=1.0)
        assert ratio > 1.0

    def test_pwc_hit_rates(self):
        rates = experiments.pwc_hit_rates(num_cores=1, **TINY)
        assert "PL4" in rates


class TestSpeedupDrivers:
    def test_speedup_experiment(self):
        table, averages, raw = experiments.speedup_experiment(
            num_cores=1, mechanisms=("radix", "ndpage"), **TINY)
        assert table["rnd"]["radix"] == 1.0
        assert averages["ndpage"] == table["rnd"]["ndpage"]
        assert raw["rnd"]["ndpage"].cycles > 0

    def test_ablation_experiment(self):
        table = experiments.ablation_experiment(
            num_cores=1, workloads=("rnd",), refs_per_core=400,
            scale=1 / 64)
        assert {"radix", "ndpage", "ndpage-bypass-only"} \
            <= set(table["rnd"])


class TestTenantInterference:
    def test_interference_table_shape(self):
        table = experiments.tenant_interference(
            workload="rnd", mechanisms=("radix", "ndpage"),
            tenant_counts=(1, 2), refs_per_core=400, scale=1 / 64)
        assert set(table) == {"radix", "ndpage"}
        row = table["radix"]
        assert row["1t x"] == 1.0
        assert row["1t cpr"] > 0
        assert row["2t cpr"] > 0
        # Co-runners can only add cost (switches at minimum).
        assert row["2t x"] >= 1.0

    def test_interference_through_runner(self, tmp_path):
        from repro.service import SweepService
        runner = SweepService(jobs=1, cache_dir=str(tmp_path))
        first = experiments.tenant_interference(
            workload="rnd", mechanisms=("radix",), tenant_counts=(1, 2),
            refs_per_core=400, scale=1 / 64, runner=runner)
        assert runner.last_stats.simulated == 2
        second = experiments.tenant_interference(
            workload="rnd", mechanisms=("radix",), tenant_counts=(1, 2),
            refs_per_core=400, scale=1 / 64, runner=runner)
        assert runner.last_stats.simulated == 0  # fully cache-served
        assert first == second

    def test_baseline_is_lowest_tenant_count_regardless_of_order(self):
        table = experiments.tenant_interference(
            workload="rnd", mechanisms=("radix",),
            tenant_counts=(2, 1), refs_per_core=400, scale=1 / 64)
        row = table["radix"]
        assert row["1t x"] == 1.0
        assert row["2t x"] >= 1.0
