"""Supervised local process pool (the PR 6 fault-tolerant pool,
refactored in place behind the :class:`SweepBackend` protocol).

One pipe per worker; ``poll`` multiplexes result pipes and process
sentinels through ``multiprocessing.connection.wait``, so a worker
death (SIGKILL, segfault, OOM kill) wakes the supervisor immediately
and surfaces as a ``"lost"`` outcome.  ``cancel`` kills the worker
running a timed-out attempt and respawns it.  Retry, backoff and
quarantine policy live upstream in the backend-agnostic supervisor.
"""

from __future__ import annotations

import multiprocessing
import traceback
from multiprocessing import connection
from typing import Callable, List, Optional

from repro.obs.events import emit
from repro.sim.backends.base import Attempt, Outcome, SweepBackend
from repro.sim.config import SystemConfig
from repro.sim.faults import FaultPlan, apply_cell_faults, cell_label
from repro.sim.runner import run_once


def _supervised_worker(conn, run_fn: Optional[Callable],
                       plan_text: Optional[str]) -> None:
    """Worker loop: receive ``(config-dict, attempt)``, simulate,
    send back ``(ok, result-or-traceback)``.

    Every exception is captured and reported per cell, so one bad cell
    cannot poison its worker or any other cell; abrupt process death
    (SIGKILL, segfault, OOM) is the supervisor's job to notice via the
    process sentinel.  Top-level so it pickles under every
    multiprocessing start method.
    """
    plan = FaultPlan.parse(plan_text) if plan_text else None
    fn = run_fn or run_once
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        data, attempt = task
        try:
            config = SystemConfig.from_dict(data)
            if plan is not None:
                apply_cell_faults(plan, cell_label(config), attempt)
            outcome = (True, fn(config))
        except Exception:
            outcome = (False, traceback.format_exc())
        try:
            conn.send(outcome)
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """A supervised worker process and its dispatch pipe."""

    __slots__ = ("conn", "process", "attempt")

    def __init__(self, conn, process):
        self.conn = conn
        self.process = process
        self.attempt: Optional[Attempt] = None


class PoolBackend(SweepBackend):
    """Dispatch attempts to supervised local worker processes."""

    name = "pool"
    supports_timeout = True

    def __init__(self, jobs: int = 2):
        self.jobs = max(1, jobs)
        self._workers: List[_Worker] = []
        self._run_fn = None
        self._plan_text: Optional[str] = None

    # -- lifecycle ---------------------------------------------------

    def open(self, run_fn, plan_text: Optional[str],
             cells: int) -> None:
        if run_fn is not None:
            from repro.sim.sweep import _ensure_picklable
            _ensure_picklable(run_fn)
        self._run_fn = run_fn
        self._plan_text = plan_text
        self._workers = [self._spawn()
                         for _ in range(min(self.jobs, max(1, cells)))]

    def _spawn(self) -> _Worker:
        parent, child = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_supervised_worker,
            args=(child, self._run_fn, self._plan_text), daemon=True)
        process.start()
        child.close()
        emit("worker.spawned", worker=f"pool-{process.pid}",
             backend=self.name)
        return _Worker(parent, process)

    def _respawn(self, worker: _Worker, kill: bool = False) -> _Worker:
        if kill and worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
        worker.process.join(timeout=2.0)
        try:
            worker.conn.close()
        except OSError:
            pass
        emit("worker.died", worker=f"pool-{worker.process.pid}",
             reason=("killed by supervisor (timeout)" if kill
                     else f"exit code {worker.process.exitcode}"))
        replacement = self._spawn()
        self._workers[self._workers.index(worker)] = replacement
        return replacement

    def close(self) -> None:
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers = []

    # -- execution ---------------------------------------------------

    def capacity(self) -> Optional[int]:
        return len(self._workers)

    def dispatch(self, attempt: Attempt) -> bool:
        for worker in self._workers:
            if worker.attempt is not None:
                continue
            try:
                worker.conn.send((attempt.data, attempt.attempt))
            except (BrokenPipeError, OSError):
                # Worker died while idle: the attempt never started,
                # so it must not count against the cell.
                self._respawn(worker)
                return False
            worker.attempt = attempt
            return True
        return False

    def poll(self, timeout: Optional[float]) -> List[Outcome]:
        busy = [w for w in self._workers if w.attempt is not None]
        if not busy:
            return []
        objects = [w.conn for w in busy]
        objects += [w.process.sentinel for w in busy]
        ready = connection.wait(objects, timeout=timeout)
        outcomes: List[Outcome] = []
        for worker in busy:
            if worker.conn in ready:
                outcome = self._collect(worker)
                if outcome is not None:
                    outcomes.append(outcome)
                if worker.attempt is not None:
                    # recv failed: the worker died mid-send.
                    outcomes.append(self._lost(worker))
                    self._respawn(worker)
            elif worker.process.sentinel in ready:
                # Dead worker; drain a result it may have flushed
                # before dying.
                if worker.conn.poll():
                    outcome = self._collect(worker)
                    if outcome is not None:
                        outcomes.append(outcome)
                if worker.attempt is not None:
                    outcomes.append(self._lost(worker))
                self._respawn(worker)
        return outcomes

    def cancel(self, key: str, attempt: int) -> None:
        for worker in self._workers:
            if worker.attempt is not None and worker.attempt.key == key:
                worker.attempt = None
                self._respawn(worker, kill=True)
                return

    # -- outcome plumbing --------------------------------------------

    def _collect(self, worker: _Worker) -> Optional[Outcome]:
        """Receive one outcome; leaves ``worker.attempt`` set when the
        recv itself failed (the caller then treats the worker as dead).
        """
        try:
            ok, payload = worker.conn.recv()
        except (EOFError, OSError):
            return None
        attempt = worker.attempt
        worker.attempt = None
        if ok:
            return Outcome(key=attempt.key, attempt=attempt.attempt,
                           status="ok", result=payload)
        return Outcome(key=attempt.key, attempt=attempt.attempt,
                       status="error", error=payload)

    def _lost(self, worker: _Worker) -> Outcome:
        attempt = worker.attempt
        worker.attempt = None
        return Outcome(
            key=attempt.key, attempt=attempt.attempt, status="lost",
            error=(f"worker died (exit code "
                   f"{worker.process.exitcode}) while running "
                   f"attempt {attempt.attempt}"))
