"""Tests for the parallel sweep orchestrator.

The contract the figure drivers build on: parallel == serial bit for
bit, results come back in input order, duplicate cells are simulated
once, and an interrupted sweep resumes from the on-disk cache running
only the missing cells.
"""

import dataclasses

import pytest

from repro.analysis.cache import ResultCache
from repro.service import SweepService
from repro.sim.runner import run_once
from repro.sim.sweep import derive_seed, expand_grid

TINY = dict(refs_per_core=300, scale=1 / 64, seed=7)


def tiny_grid(n_workloads=2, mechanisms=("radix", "ndpage")):
    workloads = ("rnd", "bfs", "xs")[:n_workloads]
    return expand_grid(workloads=workloads, mechanisms=mechanisms,
                       **TINY)


def fields(result) -> dict:
    return dataclasses.asdict(result)


def counting_run(config):
    """Picklable instrumented cell function (fork shares the list)."""
    _CALLS.append(config.canonical_json())
    return run_once(config)


_CALLS = []


class TestExpandGrid:
    def test_cross_product_order(self):
        configs = expand_grid(workloads=("rnd", "bfs"),
                              mechanisms=("radix", "ndpage"),
                              core_counts=(1, 2), **TINY)
        assert len(configs) == 8
        # workload-major, cores innermost
        assert [c.workload for c in configs[:4]] == ["rnd"] * 4
        assert [c.num_cores for c in configs[:2]] == [1, 2]
        assert configs[0].mechanism == "radix"
        assert configs[2].mechanism == "ndpage"

    def test_shared_seed_by_default(self):
        configs = tiny_grid()
        assert {c.seed for c in configs} == {7}

    def test_vary_seed_is_deterministic_and_distinct(self):
        grid1 = expand_grid(workloads=("rnd", "bfs"),
                            mechanisms=("radix", "ndpage"),
                            vary_seed=True, **TINY)
        grid2 = expand_grid(workloads=("rnd", "bfs"),
                            mechanisms=("radix", "ndpage"),
                            vary_seed=True, **TINY)
        assert [c.seed for c in grid1] == [c.seed for c in grid2]
        assert len({c.seed for c in grid1}) == len(grid1)

    def test_derive_seed_position_independent(self):
        assert derive_seed(42, "bfs", "radix") == \
            derive_seed(42, "bfs", "radix")
        assert derive_seed(42, "bfs", "radix") != \
            derive_seed(42, "bfs", "ndpage")
        assert derive_seed(42, "bfs", "radix") != \
            derive_seed(43, "bfs", "radix")


class TestSerialSweep:
    def test_matches_run_once_in_order(self):
        configs = tiny_grid()
        expected = [run_once(c) for c in configs]
        got = SweepService(jobs=1).run_grid(configs).results
        assert [fields(r) for r in got] == \
            [fields(r) for r in expected]

    def test_dedup_within_sweep(self):
        _CALLS.clear()
        configs = tiny_grid(n_workloads=1,
                            mechanisms=("radix", "radix", "radix"))
        results = SweepService(jobs=1).run_grid(
            configs, run_fn=counting_run).results
        assert len(results) == 3
        assert len(_CALLS) == 1
        assert fields(results[0]) == fields(results[1]) \
            == fields(results[2])

    def test_stats_reflect_work(self):
        runner = SweepService(jobs=1)
        configs = tiny_grid()
        runner.run_grid(configs)
        stats = runner.last_stats
        assert stats.cells == len(configs)
        assert stats.unique == len(configs)
        assert stats.simulated == len(configs)
        assert stats.cache_hits == 0
        assert stats.references == sum(
            c.refs_per_core * c.num_cores for c in configs)
        assert "simulated" in stats.summary()


class TestParallelSweep:
    def test_bit_identical_to_serial(self):
        configs = tiny_grid()
        serial = SweepService(jobs=1).run_grid(configs).results
        parallel = SweepService(jobs=2).run_grid(configs).results
        assert [fields(r) for r in parallel] == \
            [fields(r) for r in serial]

    def test_chunked_dispatch_preserves_order(self):
        configs = expand_grid(
            workloads=("rnd", "bfs", "xs"),
            mechanisms=("radix", "ndpage", "ideal"), **TINY)
        serial = SweepService(jobs=1).run_grid(configs).results
        chunked = SweepService(jobs=3).run_grid(configs).results
        assert [fields(r) for r in chunked] == \
            [fields(r) for r in serial]

    def test_pool_results_carry_matching_config(self):
        configs = tiny_grid()
        results = SweepService(jobs=2).run_grid(configs).results
        for config, result in zip(configs, results):
            assert result.config == config


class TestCachedSweep:
    def test_second_run_fully_cached(self, tmp_path):
        configs = tiny_grid()
        runner = SweepService(jobs=2, cache=ResultCache(tmp_path))
        first = runner.run_grid(configs).results
        assert runner.last_stats.simulated == len(configs)

        second = runner.run_grid(configs).results
        stats = runner.last_stats
        assert stats.simulated == 0
        assert stats.cache_hits == stats.unique == len(configs)
        assert [fields(r) for r in second] == \
            [fields(r) for r in first]

    def test_cached_equals_fresh_bit_for_bit(self, tmp_path):
        configs = tiny_grid(n_workloads=1)
        fresh = [run_once(c) for c in configs]
        runner = SweepService(jobs=1, cache=ResultCache(tmp_path))
        runner.run_grid(configs)
        cached = runner.run_grid(configs).results
        assert [fields(r) for r in cached] == \
            [fields(r) for r in fresh]

    def test_new_cell_only_simulates_missing(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepService(jobs=1, cache=cache)
        runner.run_grid(tiny_grid(mechanisms=("radix",)))

        _CALLS.clear()
        grown = tiny_grid(mechanisms=("radix", "ndpage"))
        runner.run_grid(grown, run_fn=counting_run)
        stats = runner.last_stats
        assert stats.cache_hits == 2      # the radix cells
        assert stats.simulated == 2       # only the new ndpage cells
        assert len(_CALLS) == 2

    def test_cache_dir_convenience(self, tmp_path):
        runner = SweepService(jobs=1, cache_dir=tmp_path / "c")
        runner.run_grid(tiny_grid(n_workloads=1))
        assert runner.cache is not None
        assert len(runner.cache) == 2


class TestGoldenThroughPool:
    """A 4-worker sweep reproduces the pinned golden statistics —
    worker processes simulate bit-identically to the parent."""

    def test_jobs4_matches_golden(self):
        import test_golden_stats as golden

        mechanisms = sorted(golden.GOLDEN)
        configs = [golden.small_config(m) for m in mechanisms]
        results = SweepService(jobs=4).run_grid(configs).results
        for mechanism, result in zip(mechanisms, results):
            for name, expected in golden.GOLDEN[mechanism].items():
                assert getattr(result, name) == expected, (
                    f"{mechanism}.{name} drifted through the pool")

    def test_speedup_driver_jobs4_bit_identical(self):
        from repro.analysis.experiments import speedup_experiment

        kwargs = dict(workloads=("rnd", "bfs"),
                      mechanisms=("radix", "ndpage"),
                      refs_per_core=300, scale=1 / 64)
        serial_table, serial_avg, serial_raw = speedup_experiment(
            1, **kwargs)
        par_table, par_avg, par_raw = speedup_experiment(
            1, runner=SweepService(jobs=4), **kwargs)
        assert par_table == serial_table
        assert par_avg == serial_avg
        for workload in serial_raw:
            for mechanism in serial_raw[workload]:
                assert fields(par_raw[workload][mechanism]) == \
                    fields(serial_raw[workload][mechanism])


def interrupting_run(config):
    """Simulate 3 cells, then die as if the user hit Ctrl-C."""
    if len(_CALLS) >= 3:
        raise KeyboardInterrupt
    _CALLS.append(config.canonical_json())
    return run_once(config)


class TestInterruptAndResume:
    def test_resume_runs_only_missing_cells(self, tmp_path):
        configs = expand_grid(workloads=("rnd", "bfs", "xs"),
                              mechanisms=("radix", "ndpage"), **TINY)
        assert len(configs) == 6
        cache = ResultCache(tmp_path)

        _CALLS.clear()
        with pytest.raises(KeyboardInterrupt):
            SweepService(jobs=1, cache=cache).run_grid(
                configs, run_fn=interrupting_run)
        assert len(cache) == 3            # finished cells persisted

        _CALLS.clear()
        runner = SweepService(jobs=1, cache=cache)
        results = runner.run_grid(configs, run_fn=counting_run).results
        assert len(_CALLS) == 3           # only the missing cells ran
        assert runner.last_stats.cache_hits == 3
        assert runner.last_stats.simulated == 3
        assert [fields(r) for r in results] == \
            [fields(run_once(c)) for c in configs]

    def test_parallel_resume_from_partial_cache(self, tmp_path):
        configs = tiny_grid()
        cache = ResultCache(tmp_path)
        # Pre-populate half the grid, as an interrupted parallel sweep
        # would have (chunks are persisted as they complete).
        for config in configs[:2]:
            cache.store(config, run_once(config))

        runner = SweepService(jobs=2, cache=cache)
        results = runner.run_grid(configs).results
        assert runner.last_stats.cache_hits == 2
        assert runner.last_stats.simulated == len(configs) - 2
        assert [fields(r) for r in results] == \
            [fields(run_once(c)) for c in configs]
