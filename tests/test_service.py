"""Tests for the sweep API (:mod:`repro.service`).

Everything above the simulator talks to sweeps through this surface:
``SweepService.run_grid`` grids under an explicit
:class:`SweepPolicy`.
"""

import dataclasses
import warnings

import pytest

from repro.service import (
    SweepFailure,
    SweepPolicy,
    SweepResult,
    SweepService,
)
from repro.sim.faults import FAULT_PLAN_ENV, cell_label, reset_fired
from repro.sim.runner import run_once
from repro.sim.sweep import expand_grid

TINY = dict(refs_per_core=300, scale=1 / 64, seed=7)


@pytest.fixture(autouse=True)
def _fresh_state(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    reset_fired()
    yield
    reset_fired()


def tiny_grid(workloads=("rnd", "bfs"), mechanisms=("radix", "ndpage")):
    return expand_grid(workloads=workloads, mechanisms=mechanisms,
                       **TINY)


def fields(result) -> dict:
    return dataclasses.asdict(result)


class TestRunGrid:
    def test_sweep_result_surface(self):
        configs = tiny_grid()
        grid = SweepService(backend="serial").run_grid(configs)
        assert isinstance(grid, SweepResult)
        assert grid.ok
        assert len(grid) == len(configs)
        assert list(grid) == grid.results
        assert grid[0] is grid.results[0]
        assert not grid.manifest
        assert grid.stats.simulated == len(configs)

    def test_policy_override_leaves_holes(self):
        configs = tiny_grid()
        bad = cell_label(configs[1])
        grid = SweepService(backend="serial").run_grid(
            configs,
            policy=SweepPolicy(retries=0, backoff=0.0, strict=False,
                               fault_plan=f"fail:{bad}:*"))
        assert not grid.ok
        assert grid[1] is None
        assert [f.label for f in grid.manifest] == [bad]

    def test_retry_policy_recovers_flaky_cell(self):
        configs = tiny_grid()
        flaky = cell_label(configs[2])
        service = SweepService(backend="serial")
        grid = service.run_grid(
            configs,
            policy=SweepPolicy(retries=1, backoff=0.0,
                               fault_plan=f"fail:{flaky}:1"))
        assert grid.ok
        assert grid.stats.retries == 1
        assert fields(grid[2]) == fields(run_once(configs[2]))

    def test_strict_grid_raises_but_persists_healthy(self, tmp_path):
        from repro.analysis.cache import ResultCache

        configs = tiny_grid()
        bad = cell_label(configs[0])
        cache = ResultCache(tmp_path)
        service = SweepService(
            backend="serial", cache=cache,
            policy=SweepPolicy(retries=0, backoff=0.0,
                               fault_plan=f"fail:{bad}:*"))
        with pytest.raises(SweepFailure):
            service.run_grid(configs)
        assert service.last_stats.failed == 1
        assert len(cache) == len(configs) - 1

    def test_experiments_drivers_accept_a_service(self):
        from repro.analysis import experiments

        table = experiments.speedup_experiment(
            1, workloads=("rnd",), refs_per_core=300, scale=1 / 64,
            runner=SweepService(backend="serial"))[0]
        assert "rnd" in table

    def test_service_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            SweepService(backend="serial").run_grid(tiny_grid()[:1])
