"""Tests for the submit-level sweep API (:mod:`repro.service`).

Everything above the simulator talks to sweeps through this surface:
``submit``/``gather`` handle resolution and ``run_grid`` grids under
an explicit :class:`SweepPolicy`.
"""

import dataclasses
import warnings

import pytest

import repro.service as service_mod
from repro.service import (
    CellHandle,
    SweepFailure,
    SweepPolicy,
    SweepResult,
    SweepService,
    gather,
    run_grid,
    submit,
)
from repro.sim.faults import FAULT_PLAN_ENV, cell_label, reset_fired
from repro.sim.runner import run_once
from repro.sim.sweep import expand_grid

TINY = dict(refs_per_core=300, scale=1 / 64, seed=7)


@pytest.fixture(autouse=True)
def _fresh_state(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    reset_fired()
    monkeypatch.setattr(service_mod, "_default_service", None)
    yield
    reset_fired()


def tiny_grid(workloads=("rnd", "bfs"), mechanisms=("radix", "ndpage")):
    return expand_grid(workloads=workloads, mechanisms=mechanisms,
                       **TINY)


def fields(result) -> dict:
    return dataclasses.asdict(result)


class TestSubmitGather:
    def test_submit_returns_pending_handle(self):
        service = SweepService(backend="serial")
        handle = service.submit(tiny_grid()[0])
        assert isinstance(handle, CellHandle)
        assert handle.state == "pending"
        assert not handle.done()

    def test_gather_resolves_batch_bit_identically(self):
        configs = tiny_grid()
        service = SweepService(backend="serial")
        handles = [service.submit(c) for c in configs]
        results = service.gather(handles)
        assert all(h.done() and h.state == "done" for h in handles)
        assert [fields(r) for r in results] \
            == [fields(run_once(c)) for c in configs]

    def test_result_triggers_lazy_gather(self):
        configs = tiny_grid()
        service = SweepService(backend="serial")
        handles = [service.submit(c) for c in configs]
        # Asking one handle executes the whole pending batch at once.
        assert fields(handles[0].result()) == fields(run_once(configs[0]))
        assert all(h.done() for h in handles)
        assert service.last_stats.simulated == len(configs)

    def test_duplicate_submit_returns_same_handle(self):
        service = SweepService(backend="serial")
        config = tiny_grid()[0]
        assert service.submit(config) is service.submit(config)

    def test_gather_none_gathers_everything(self):
        configs = tiny_grid()
        service = SweepService(backend="serial")
        handles = [service.submit(c) for c in configs]
        results = service.gather()
        assert len(results) == len(configs)
        assert all(h.done() for h in handles)

    def test_gather_marks_failed_handles(self):
        configs = tiny_grid()
        bad = cell_label(configs[1])
        service = SweepService(
            backend="serial",
            policy=SweepPolicy(retries=0, backoff=0.0, strict=False,
                               fault_plan=f"fail:{bad}:*"))
        handles = [service.submit(c) for c in configs]
        results = service.gather(handles)
        assert results[1] is None
        assert handles[1].state == "failed"
        assert "InjectedFault" in handles[1].error
        assert handles[0].state == "done"

    def test_gather_strict_raises_after_marking_handles(self):
        configs = tiny_grid()
        bad = cell_label(configs[0])
        service = SweepService(
            backend="serial",
            policy=SweepPolicy(retries=0, backoff=0.0,
                               fault_plan=f"fail:{bad}:*"))
        handles = [service.submit(c) for c in configs]
        with pytest.raises(SweepFailure):
            service.gather(handles)
        assert handles[0].state == "failed"
        assert all(h.state == "done" for h in handles[1:])

    def test_module_level_submit_uses_default_service(self):
        config = tiny_grid()[0]
        handle = submit(config)
        assert submit(config) is handle
        assert gather([handle]) == [handle.result()]
        assert fields(handle.result()) == fields(run_once(config))

    def test_module_gather_mixes_services(self):
        configs = tiny_grid()
        a, b = SweepService(backend="serial"), \
            SweepService(backend="serial")
        handles = [a.submit(configs[0]), b.submit(configs[1]),
                   a.submit(configs[2])]
        results = gather(handles)
        assert all(h.done() for h in handles)
        assert [fields(r) for r in results] \
            == [fields(run_once(c)) for c in
                (configs[0], configs[1], configs[2])]


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
        assert grid.manifest.labels() == [bad]

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

    def test_module_level_run_grid(self, tmp_path):
        configs = tiny_grid()
        grid = run_grid(configs, backend="serial",
                        cache_dir=tmp_path / "cache")
        assert grid.ok and len(grid) == len(configs)
        # Second call is served from the cache it just populated.
        again = run_grid(configs, backend="serial",
                         cache_dir=tmp_path / "cache")
        assert again.stats.cache_hits == len(configs)
        assert [fields(r) for r in again] == [fields(r) for r in grid]

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
