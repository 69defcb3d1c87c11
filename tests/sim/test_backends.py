"""Tests for the pluggable sweep-execution backends.

The contract under test is the one :mod:`repro.sim.backends.base`
states: backends only execute attempts and report outcomes, while the
backend-agnostic supervisor owns retries/backoff/timeouts/quarantine —
so every backend, at any worker count, produces results bit-identical
to the serial loop and byte-identical cache entries.  The fileq
backend additionally gets its multi-host machinery driven directly:
claim-by-rename, heartbeat staleness, dead-worker reclaim and
work-stealing.
"""

import dataclasses
import json
import os
import threading
import time

import pytest

from repro.service import SweepPolicy, SweepService
from repro.sim.backends.base import (
    BACKEND_NAMES,
    Attempt,
    BackendSpec,
)
from repro.sim.backends.fileq import (
    FileQueueBackend,
    QueueLayout,
    _atomic_write,
    _steal_stale_claims,
    item_name,
    repair_queue,
    worker_loop,
)
from repro.sim.faults import FAULT_PLAN_ENV, cell_label, reset_fired
from repro.sim.runner import run_once
from repro.sim.sweep import expand_grid

TINY = dict(refs_per_core=300, scale=1 / 64, seed=7)
#: Tight liveness intervals so recovery paths run in test time.
FAST_Q = dict(heartbeat_interval=0.05, stale_after=0.3)


@pytest.fixture(autouse=True)
def _fresh_fault_state(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    reset_fired()
    yield
    reset_fired()


def tiny_grid(workloads=("rnd", "bfs"), mechanisms=("radix", "ndpage")):
    return expand_grid(workloads=workloads, mechanisms=mechanisms,
                       **TINY)


def fields(result) -> dict:
    return dataclasses.asdict(result)


class TestBackendSpec:
    def test_names(self):
        assert BACKEND_NAMES == ("auto", "serial", "pool", "fileq")

    def test_auto_resolves_serial_for_one_job(self):
        assert BackendSpec(jobs=1).resolve(4, None).name == "serial"

    def test_auto_resolves_serial_for_one_cell(self):
        assert BackendSpec(jobs=4).resolve(1, None).name == "serial"

    def test_auto_resolves_pool_for_parallel_sweeps(self):
        backend = BackendSpec(jobs=4).resolve(4, None)
        backend.close()
        assert backend.name == "pool"

    def test_auto_needs_pool_to_enforce_timeouts(self):
        # A single-cell sweep with a timeout still needs a preemptable
        # executor: auto must not fall back to serial.
        backend = BackendSpec(jobs=2).resolve(1, 30.0)
        backend.close()
        assert backend.name == "pool"

    def test_explicit_names_resolve(self, tmp_path):
        assert BackendSpec(name="serial").resolve(4, None).name \
            == "serial"
        spec = BackendSpec(name="fileq", queue_dir=tmp_path)
        assert spec.resolve(4, None).name == "fileq"

    def test_fileq_requires_queue_dir(self):
        with pytest.raises(ValueError, match="queue_dir"):
            BackendSpec(name="fileq").resolve(4, None)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep backend"):
            BackendSpec(name="carrier-pigeon").resolve(4, None)
        with pytest.raises(ValueError, match="unknown backend"):
            SweepService(backend="carrier-pigeon")


class TestBackendEquivalence:
    """The tentpole guarantee: identical results *and* identical cache
    bytes from every backend at any worker count."""

    def _run(self, backend, configs, tmp_path, **kwargs):
        service = SweepService(
            backend=backend, cache_dir=tmp_path / f"cache-{backend}",
            queue_dir=(tmp_path / f"queue-{backend}"
                       if backend == "fileq" else None),
            **kwargs)
        return service.run_grid(configs).results, service

    def test_results_and_cache_bit_identical(self, tmp_path):
        configs = tiny_grid()
        runs = {
            "serial": self._run("serial", configs, tmp_path),
            "pool": self._run("pool", configs, tmp_path, jobs=2),
            "fileq": self._run("fileq", configs, tmp_path, jobs=2),
        }
        reference, _ = runs["serial"]
        assert all(r is not None for r in reference)
        for name, (results, service) in runs.items():
            assert [fields(r) for r in results] \
                == [fields(r) for r in reference], name
            assert service.last_stats.simulated == len(configs), name
            assert not service.last_stats.manifest, name

        # Cache directories hold the same files with the same bytes.
        def entries(backend):
            root = tmp_path / f"cache-{backend}"
            return {p.name: p.read_bytes()
                    for p in root.glob("*.json")}

        serial_entries = entries("serial")
        assert len(serial_entries) == len(configs)
        assert entries("pool") == serial_entries
        assert entries("fileq") == serial_entries

    def test_dedup_is_backend_independent(self, tmp_path):
        configs = tiny_grid() + tiny_grid()   # every cell twice
        for backend in ("serial", "pool", "fileq"):
            results, service = self._run(
                backend, configs, tmp_path,
                jobs=2 if backend != "serial" else 1)
            assert service.last_stats.unique == len(configs) // 2
            assert fields(results[0]) == fields(results[len(configs)
                                                        // 2])


class TestFileqWorkerLoop:
    def _prefill(self, queue, config, attempt=1):
        layout = QueueLayout(queue)
        layout.ensure()
        key = config.canonical_json()
        _atomic_write(
            layout.todo / item_name(key, attempt),
            {"key": key, "attempt": attempt,
             "label": cell_label(config), "config": config.to_dict()})
        return layout, key

    def test_worker_drains_todo_and_writes_outcome(self, tmp_path):
        config = tiny_grid()[0]
        layout, key = self._prefill(tmp_path / "q", config)
        summary = worker_loop(tmp_path / "q", worker_id="w1",
                              poll_interval=0.01, max_idle=0.1)
        assert summary == {"worker": "w1", "cells": 1}
        assert not list(layout.todo.glob("*.json"))
        outcome = json.loads(
            (layout.results / item_name(key, 1)).read_text())
        assert outcome["ok"] and outcome["key"] == key
        assert outcome["worker"] == "w1"
        # The payload round-trips to the bit-identical RunResult.
        from repro.analysis.cache import result_from_dict
        assert fields(result_from_dict(outcome["result"])) \
            == fields(run_once(config))

    def test_worker_honors_fault_plan_env(self, tmp_path, monkeypatch):
        config = tiny_grid()[0]
        layout, key = self._prefill(tmp_path / "q", config)
        monkeypatch.setenv(FAULT_PLAN_ENV,
                           f"fail:{cell_label(config)}:*")
        worker_loop(tmp_path / "q", worker_id="w1",
                    poll_interval=0.01, max_idle=0.1)
        outcome = json.loads(
            (layout.results / item_name(key, 1)).read_text())
        assert not outcome["ok"]
        assert "InjectedFault" in outcome["error"]

    def test_idle_worker_exits_after_max_idle(self, tmp_path):
        start = time.monotonic()
        summary = worker_loop(tmp_path / "q", worker_id="w1",
                              poll_interval=0.01, max_idle=0.05)
        assert summary["cells"] == 0
        assert time.monotonic() - start < 5.0
        # Its liveness files are cleaned up on exit.
        layout = QueueLayout(tmp_path / "q")
        assert not layout.heartbeat("w1").exists()
        assert not (layout.claims / "w1").exists()

    def test_worker_steals_stale_claims(self, tmp_path):
        """An item stuck in a dead worker's claims dir (no heartbeat)
        is returned to todo/ and executed."""
        config = tiny_grid()[0]
        layout, key = self._prefill(tmp_path / "q", config)
        ghost = layout.claims / "ghost"
        ghost.mkdir(parents=True)
        (layout.todo / item_name(key, 1)).rename(
            ghost / item_name(key, 1))
        assert _steal_stale_claims(layout, "w1", stale_after=0.2) == 1
        assert (layout.todo / item_name(key, 1)).exists()
        summary = worker_loop(tmp_path / "q", worker_id="w1",
                              poll_interval=0.01, max_idle=0.1,
                              stale_after=0.2)
        assert summary["cells"] == 1

    def test_steal_spares_live_owners(self, tmp_path):
        config = tiny_grid()[0]
        layout, key = self._prefill(tmp_path / "q", config)
        owner = layout.claims / "busy"
        owner.mkdir(parents=True)
        (layout.todo / item_name(key, 1)).rename(
            owner / item_name(key, 1))
        layout.heartbeat("busy").touch()   # fresh heartbeat: alive
        assert _steal_stale_claims(layout, "w1",
                                   stale_after=60.0) == 0
        assert (owner / item_name(key, 1)).exists()


class TestFileqBackend:
    def test_run_fn_requires_local_workers(self, tmp_path):
        backend = FileQueueBackend(tmp_path / "q", workers=0)
        with pytest.raises(ValueError, match="cannot ship run_fn"):
            backend.open(run_once, None, 1)

    def test_open_purges_stray_items(self, tmp_path):
        layout = QueueLayout(tmp_path / "q")
        layout.ensure()
        (layout.todo / "stale.json").write_text("{}")
        (layout.results / "stale.json").write_text("{}")
        (layout.results / "torn.json.tmp99").write_text("{")
        backend = FileQueueBackend(tmp_path / "q", workers=0)
        backend.open(None, None, 1)
        try:
            assert not list(layout.todo.iterdir())
            assert not list(layout.results.iterdir())
        finally:
            backend.close()

    def test_supervisor_reclaims_dead_owner_claims(self, tmp_path):
        """A claim owned by a worker with no (or stale) heartbeat
        surfaces as a ``lost`` outcome carrying the item's real key
        and attempt."""
        backend = FileQueueBackend(tmp_path / "q", workers=0,
                                   stale_after=0.1,
                                   poll_interval=0.01)
        backend.open(None, None, 1)
        try:
            attempt = Attempt(key="k" * 200, data={}, label="cell",
                              attempt=2)
            assert backend.dispatch(attempt)
            ghost = backend.layout.claims / "ghost"
            ghost.mkdir(parents=True)
            name = item_name(attempt.key, attempt.attempt)
            (backend.layout.todo / name).rename(ghost / name)
            outcomes = backend.poll(timeout=2.0)
        finally:
            backend.close()
        assert len(outcomes) == 1
        assert outcomes[0].status == "lost"
        assert outcomes[0].key == attempt.key
        assert outcomes[0].attempt == 2
        assert "ghost" in outcomes[0].error

    def test_cancel_unlinks_unclaimed_item(self, tmp_path):
        backend = FileQueueBackend(tmp_path / "q", workers=0)
        backend.open(None, None, 1)
        try:
            attempt = Attempt(key="key", data={}, label="cell",
                              attempt=1)
            backend.dispatch(attempt)
            backend.cancel("key", 1)
            assert not list(backend.layout.todo.glob("*.json"))
        finally:
            backend.close()

    def test_item_names_are_filesystem_safe(self):
        # Cache-less sweeps key cells by full canonical JSON — far
        # beyond NAME_MAX — so filenames must digest the key.
        name = item_name("x" * 10_000, 3)
        assert len(name) < 64
        assert name.endswith(".a3.json")
        assert item_name("x" * 10_000, 3) == name
        assert item_name("y" * 10_000, 3) != name


class TestFileqRecovery:
    """Recovery paths through the full supervisor, with local workers
    under deterministic fault plans."""

    def _service(self, tmp_path, **policy_kwargs):
        return SweepService(
            backend="fileq", jobs=2, queue_dir=tmp_path / "queue",
            policy=SweepPolicy(**policy_kwargs), **FAST_Q)

    def test_killed_worker_recovers_bit_identically(self, tmp_path):
        """SIGKILL mid-cell: the heartbeat goes stale, the claim is
        reclaimed as lost, the worker respawned, the cell retried —
        and the result matches a clean run bit for bit."""
        configs = tiny_grid()
        victim = cell_label(configs[1])
        service = self._service(tmp_path, retries=1, backoff=0.01,
                                fault_plan=f"kill:{victim}:1")
        results = service.run_grid(configs).results
        assert all(r is not None for r in results)
        stats = service.last_stats
        assert stats.worker_deaths >= 1
        assert stats.retries >= 1
        assert not stats.manifest
        assert fields(results[1]) == fields(run_once(configs[1]))

    def test_kill_exhausts_retries_into_manifest(self, tmp_path):
        configs = tiny_grid()
        victim = cell_label(configs[0])
        service = self._service(tmp_path, retries=1, backoff=0.01,
                                strict=False,
                                fault_plan=f"kill:{victim}:*")
        results = service.run_grid(configs).results
        assert results[0] is None
        assert all(r is not None for r in results[1:])
        failure = service.last_stats.manifest.failures[0]
        assert failure.kind == "worker-died"
        assert failure.attempts == 2

    def test_hung_cell_trips_timeout(self, tmp_path):
        configs = tiny_grid()
        wedged = cell_label(configs[1])
        service = self._service(tmp_path, retries=0,
                                cell_timeout=1.0, backoff=0.01,
                                strict=False,
                                fault_plan=f"hang:{wedged}:*:30")
        results = service.run_grid(configs).results
        assert results[1] is None
        assert all(r is not None
                   for i, r in enumerate(results) if i != 1)
        stats = service.last_stats
        assert stats.timeouts >= 1
        failure = stats.manifest.failures[0]
        assert failure.kind == "timeout"
        assert "cell_timeout" in failure.error


class TestFileqResilience:
    """Fencing, drain, and I/O hardening of the queue machinery."""

    def _prefill(self, queue, config, attempt=1):
        layout = QueueLayout(queue)
        layout.ensure()
        key = config.canonical_json()
        _atomic_write(
            layout.todo / item_name(key, attempt),
            {"key": key, "attempt": attempt,
             "label": cell_label(config), "config": config.to_dict()})
        return layout, key

    def test_stolen_claim_is_never_published(self, tmp_path):
        """Fencing: a worker whose claim vanished mid-cell (stolen
        after its heartbeat went stale) abandons the result instead of
        racing the new owner."""
        config = tiny_grid()[0]
        layout, key = self._prefill(tmp_path / "q", config)
        claim = layout.claims / "w1" / item_name(key, 1)
        stop = threading.Event()

        def thief_wins(cfg):
            os.replace(claim, tmp_path / "stolen.json")   # the steal
            stop.set()
            return run_once(cfg)

        summary = worker_loop(tmp_path / "q", worker_id="w1",
                              run_fn=thief_wins, poll_interval=0.01,
                              stop_event=stop)
        assert summary["cells"] == 0
        assert not list(layout.results.glob("*.json"))
        # Clean exit: no heartbeat, no claim dir left behind.
        assert not layout.heartbeat("w1").exists()
        assert not (layout.claims / "w1").exists()

    def test_persistent_publish_failure_returns_claim(self, tmp_path):
        """A worker that cannot write its result hands the item back
        to todo/ instead of dying with the result in hand."""
        config = tiny_grid()[0]
        layout, key = self._prefill(tmp_path / "q", config)
        stop = threading.Event()

        def once(cfg):
            stop.set()
            return run_once(cfg)

        summary = worker_loop(
            tmp_path / "q", worker_id="w1", run_fn=once,
            plan_text=f"ioerr:{item_name(key, 1)}:*",
            poll_interval=0.01, stop_event=stop)
        assert summary["cells"] == 0
        assert not list(layout.results.glob("*.json"))
        assert (layout.todo / item_name(key, 1)).exists()

    def test_atomic_write_cleans_tmp_on_failure(self, tmp_path):
        dest = tmp_path / "taken.json"
        dest.mkdir()    # os.replace onto a directory raises
        with pytest.raises(OSError):
            _atomic_write(dest, {"x": 1})
        assert not list(tmp_path.glob("*.tmp*"))

    def test_persistent_dispatch_failure_becomes_error_outcome(
            self, tmp_path):
        """A supervisor that cannot write to the queue degrades to a
        synthetic failed attempt — the normal retry/quarantine budget
        applies instead of a crash."""
        backend = FileQueueBackend(tmp_path / "q", workers=0)
        backend.open(None, "enospc:queue/:*", 1)
        try:
            assert backend.dispatch(Attempt(
                key="k1", data={}, label="cell", attempt=1))
            outcomes = backend.poll(timeout=0.2)
        finally:
            backend.close()
        assert len(outcomes) == 1
        assert outcomes[0].status == "error"
        assert "queue dispatch failed" in outcomes[0].error
        assert not list((tmp_path / "q" / "todo").glob("*"))

    def test_transient_queue_fault_absorbed(self, tmp_path):
        """One flaky write per process (``:1``) is retried inside
        guarded_io; the sweep completes bit-identically."""
        configs = tiny_grid()
        reference = SweepService(backend="serial").run_grid(configs).results
        service = SweepService(
            backend="fileq", jobs=2, queue_dir=tmp_path / "q",
            policy=SweepPolicy(strict=False,
                               fault_plan="ioerr:queue/:1"),
            **FAST_Q)
        results = service.run_grid(configs).results
        assert not service.last_stats.manifest
        assert [fields(r) for r in results] \
            == [fields(r) for r in reference]

    def test_clean_sweep_leaves_pristine_queue(self, tmp_path):
        """Local workers drain through the stop event on close(), so a
        fault-free fileq sweep leaves nothing for repair to find."""
        configs = tiny_grid()
        service = SweepService(backend="fileq", jobs=2,
                               queue_dir=tmp_path / "q", **FAST_Q)
        assert all(r is not None for r in service.run_grid(configs).results)
        layout = QueueLayout(tmp_path / "q")
        assert not list(layout.workers.glob("*.hb"))
        assert not list(layout.claims.iterdir())
        report = repair_queue(tmp_path / "q")
        assert sum(report.values()) == 0, report


class TestRepairQueue:
    def test_missing_queue_reports_zero(self, tmp_path):
        assert sum(repair_queue(tmp_path / "absent").values()) == 0

    def test_clean_queue_reports_zero(self, tmp_path):
        layout = QueueLayout(tmp_path / "q")
        layout.ensure()
        assert sum(repair_queue(tmp_path / "q").values()) == 0

    def test_finds_and_fixes_all_debris_kinds(self, tmp_path):
        layout = QueueLayout(tmp_path / "q")
        layout.ensure()
        # A writer died mid-_atomic_write.
        (layout.todo / "torn.json.tmp123").write_text("{")
        # A dead worker left a claim and a stale heartbeat.
        ghost = layout.claims / "ghost"
        ghost.mkdir()
        _atomic_write(ghost / item_name("k1", 2),
                      {"key": "k1", "attempt": 2})
        hb = layout.heartbeat("ghost")
        hb.touch()
        os.utime(hb, (1.0, 1.0))
        # A killed supervisor left two attempts of the same cell.
        _atomic_write(layout.todo / item_name("k2", 1), {"key": "k2"})
        _atomic_write(layout.todo / item_name("k2", 3), {"key": "k2"})
        # A live worker holds a claim: must not be touched.
        live = layout.claims / "alive"
        live.mkdir()
        _atomic_write(live / item_name("k3", 1), {"key": "k3"})
        layout.heartbeat("alive").touch()

        dry = repair_queue(tmp_path / "q", apply=False)
        assert dry == {"tmp_orphans": 1, "stale_heartbeats": 1,
                       "ghost_claim_dirs": 1, "requeued_claims": 1,
                       "duplicate_items": 1}
        # Dry run changed nothing.
        assert (ghost / item_name("k1", 2)).exists()
        assert (layout.todo / "torn.json.tmp123").exists()

        assert repair_queue(tmp_path / "q", apply=True) == dry
        assert not list(layout.root.rglob("*.tmp*"))
        assert (layout.todo / item_name("k1", 2)).exists()
        assert not ghost.exists()
        assert not hb.exists()
        # Duplicates: only the highest attempt survives.
        assert (layout.todo / item_name("k2", 3)).exists()
        assert not (layout.todo / item_name("k2", 1)).exists()
        # The live worker was spared entirely.
        assert (live / item_name("k3", 1)).exists()
        assert layout.heartbeat("alive").exists()
        # Second pass: nothing left to find.
        assert sum(repair_queue(tmp_path / "q").values()) == 0
