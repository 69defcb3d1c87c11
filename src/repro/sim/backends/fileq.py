"""Multi-host sweep backend coordinating through a shared directory.

The queue directory — typically a sibling of the result cache on
shared storage — is the only coordination channel, so any machine
that can see it can contribute workers (``repro worker --queue DIR``).
Layout::

    QUEUE/
      todo/      <key>.a<N>.json   work items, claimed by atomic rename
      claims/    <worker-id>/      items a worker is executing
      results/   <key>.a<N>.json   outcomes for the supervisor
      workers/   <worker-id>.hb    heartbeat files (touched by a thread)

Protocol:

* **Dispatch.**  The supervisor writes one JSON work item per attempt
  into ``todo/`` (atomic tmp + rename).
* **Claim.**  A worker claims an item by ``os.replace``-ing it into
  its own ``claims/<id>/`` directory — rename is atomic on POSIX, so
  exactly one worker wins.
* **Execute.**  The worker simulates the cell and writes the full
  outcome — including the serialized :class:`RunResult` — into
  ``results/``, then deletes its claim.  Workers never touch the
  result cache; the supervisor owns persistence, so cache semantics
  are identical across backends.
* **Liveness.**  Each worker runs a daemon thread touching its
  heartbeat file; SIGKILL stops the thread with the process.  The
  supervisor treats a claim whose owner's heartbeat is stale (or
  whose local worker process is dead) as a ``"lost"`` attempt — the
  same event as a SIGKILLed pool worker — and the backend-agnostic
  supervisor retries or quarantines it.  Idle workers also steal
  stale claims back into ``todo/`` so skewed grids rebalance even
  between supervisor polls; rename arbitrates the race.
* **Fencing.**  Before publishing, a worker re-validates that it
  still owns its claim file.  A SIGSTOP'd or NFS-stalled worker whose
  claim was stolen (its heartbeat went stale) abandons the finished
  cell instead of racing the claim's new owner — the simulator is
  deterministic, so nothing is lost.
* **Drain.**  On a stop request (SIGTERM/SIGINT to ``repro worker``,
  or the supervisor closing the backend) a worker finishes — or, on a
  second signal, abandons — its in-flight cell, returns unfinished
  claims to ``todo/``, deletes its heartbeat file and claim dir, and
  exits 0, emitting ``worker.drained``.  ``repair_queue`` (CLI:
  ``repro queue repair``) sweeps up what *unclean* deaths leave
  behind: tmp orphans, ghost claim dirs, stale heartbeats, duplicate
  todo items.

The supervisor can spawn local worker processes (``workers=N``),
drive external ``repro worker`` processes (``workers=0``), or mix
both.  Results are bit-identical to the serial backend because the
simulator is deterministic and the cell payload is the portable
``config.to_dict()`` form.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import socket
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.events import JsonlSink, emit, session
from repro.sim.backends.base import Attempt, Outcome, SweepBackend
from repro.sim.config import SystemConfig
from repro.sim.faults import FaultPlan, apply_cell_faults, atomic_write
from repro.sim.runner import run_once

HEARTBEAT_INTERVAL = 1.0   # seconds between heartbeat touches
STALE_AFTER = 5.0          # heartbeat age that marks a worker dead
POLL_INTERVAL = 0.05       # idle scan period (workers and supervisor)


# -- queue layout -------------------------------------------------------------

class QueueLayout:
    """Paths inside one queue directory."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.todo = self.root / "todo"
        self.claims = self.root / "claims"
        self.results = self.root / "results"
        self.workers = self.root / "workers"

    def ensure(self) -> None:
        for path in (self.todo, self.claims, self.results,
                     self.workers):
            path.mkdir(parents=True, exist_ok=True)

    def heartbeat(self, worker_id: str) -> Path:
        return self.workers / f"{worker_id}.hb"


def item_name(key: str, attempt: int) -> str:
    """Filesystem-safe work-item filename.  Keys may be full canonical
    JSON (cache-less sweeps), so the filename carries a digest; the
    real key travels inside the item payload."""
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:40]
    return f"{digest}.a{attempt}.json"


def _atomic_write(path: Path, payload: dict,
                  plan: Optional[FaultPlan] = None) -> None:
    """Write one queue file as JSON through
    :func:`~repro.sim.faults.atomic_write` (site ``queue/<name>``)."""
    atomic_write(path, json.dumps(payload), "queue", path.name, plan)


def _read_json(path: Path) -> Optional[dict]:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


# -- worker side --------------------------------------------------------------

class _Heartbeat(threading.Thread):
    """Touch a heartbeat file until stopped; daemon, so SIGKILL takes
    it down with the worker and staleness detection sees the death."""

    def __init__(self, path: Path, interval: float):
        super().__init__(daemon=True)
        self.path = path
        self.interval = interval
        self._stop = threading.Event()

    def run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.path.touch()
            except OSError:
                pass

    def stop(self) -> None:
        self._stop.set()


def _claim_next(layout: QueueLayout, my_claims: Path) -> Optional[Path]:
    """Claim the lexically first todo item by atomic rename."""
    try:
        names = sorted(p.name for p in layout.todo.glob("*.json"))
    except OSError:
        return None
    for name in names:
        target = my_claims / name
        try:
            os.replace(layout.todo / name, target)
        except OSError:
            continue   # lost the race to another worker
        return target
    return None


def _steal_stale_claims(layout: QueueLayout, worker_id: str,
                        stale_after: float) -> int:
    """Return stale claims (dead owners) to ``todo/``; rename
    arbitrates against the supervisor reclaiming the same items."""
    stolen = 0
    now = time.time()
    try:
        owners = [p for p in layout.claims.iterdir() if p.is_dir()]
    except OSError:
        return 0
    for owner in owners:
        if owner.name == worker_id:
            continue
        heartbeat = layout.heartbeat(owner.name)
        try:
            age = now - heartbeat.stat().st_mtime
        except OSError:
            age = None   # no heartbeat file: owner is gone
        if age is not None and age < stale_after:
            continue
        for path in sorted(owner.glob("*.json")):
            try:
                os.replace(path, layout.todo / path.name)
            except OSError:
                continue
            stolen += 1
    return stolen


def worker_loop(queue_dir: Union[str, Path],
                worker_id: Optional[str] = None,
                run_fn=None,
                plan_text: Optional[str] = None,
                poll_interval: float = POLL_INTERVAL,
                heartbeat_interval: float = HEARTBEAT_INTERVAL,
                stale_after: float = STALE_AFTER,
                max_idle: Optional[float] = None,
                stop_event=None,
                events_out: Optional[Union[str, Path]] = None,
                log_stream=None) -> Dict[str, object]:
    """Run one queue worker until stopped or idle for ``max_idle`` s.

    The entry point behind ``repro worker --queue DIR`` and the
    supervisor's local workers.  Fault plans come from ``plan_text``
    or, when unset, the ``REPRO_FAULT_PLAN`` environment variable —
    so external workers honor the same chaos plans as pool workers.

    ``log_stream`` receives structured timestamped progress lines
    (``repro worker`` passes stderr); ``events_out`` additionally
    opens a JSONL event sink of the worker's own, so an external
    worker's claim/executed/heartbeat events can be merged with the
    supervisor's log afterwards.  Local workers forked by the
    supervisor inherit its sink instead and need neither.
    """
    from repro.analysis.cache import result_to_dict

    layout = QueueLayout(queue_dir)
    layout.ensure()
    worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"

    def log(message: str) -> None:
        emit("worker.log", worker=worker_id, message=message)
        if log_stream is not None:
            stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
            log_stream.write(f"{stamp} [{worker_id}] {message}\n")
            log_stream.flush()

    with contextlib.ExitStack() as stack:
        if events_out:
            stack.enter_context(session(JsonlSink(events_out)))
            emit("worker.spawned", worker=worker_id, backend="fileq")
        my_claims = layout.claims / worker_id
        my_claims.mkdir(parents=True, exist_ok=True)
        heartbeat_path = layout.heartbeat(worker_id)
        heartbeat_path.touch()
        heartbeat = _Heartbeat(heartbeat_path, heartbeat_interval)
        heartbeat.start()
        log(f"online, queue={layout.root}")

        plan = (FaultPlan.parse(plan_text) if plan_text
                else FaultPlan.from_env())
        plan = plan if plan else None
        fn = run_fn or run_once
        executed = 0
        idle_since = time.monotonic()
        last_beat = time.monotonic()
        try:
            while not (stop_event is not None
                       and stop_event.is_set()):
                now = time.monotonic()
                if now - last_beat >= heartbeat_interval:
                    emit("worker.heartbeat", worker=worker_id,
                         executed=executed)
                    last_beat = now
                claim = _claim_next(layout, my_claims)
                if (claim is not None and stop_event is not None
                        and stop_event.is_set()):
                    # Drain request raced the claim: the finally
                    # block returns it to todo/ untouched.
                    break
                if claim is None:
                    stolen = _steal_stale_claims(
                        layout, worker_id, stale_after)
                    if stolen:
                        log(f"stole {stolen} stale claim(s)")
                        continue
                    if (max_idle is not None
                            and time.monotonic() - idle_since
                            > max_idle):
                        log("idle timeout, exiting")
                        break
                    time.sleep(poll_interval)
                    continue
                item = _read_json(claim)
                if item is None:
                    claim.unlink(missing_ok=True)
                    continue
                key, attempt = item["key"], item["attempt"]
                label = item.get("label", "")
                emit("worker.claim", worker=worker_id, key=key,
                     attempt=attempt)
                log(f"claim {label or key[:16]} attempt {attempt}")
                outcome: Dict[str, object] = {
                    "key": key, "attempt": attempt,
                    "worker": worker_id}
                started = time.perf_counter()
                try:
                    config = SystemConfig.from_dict(item["config"])
                    if plan is not None:
                        apply_cell_faults(plan, label, attempt)
                    result = fn(config)
                    outcome["ok"] = True
                    outcome["result"] = result_to_dict(result)
                except Exception:
                    outcome["ok"] = False
                    outcome["error"] = traceback.format_exc()
                wall = round(time.perf_counter() - started, 6)
                if not claim.exists():
                    # Fencing: the claim was stolen (our heartbeat
                    # went stale — SIGSTOP, NFS stall) and another
                    # worker owns this attempt now.  Publishing would
                    # race the new owner, so abandon the result; the
                    # simulator is deterministic, nothing is lost.
                    log(f"claim {label or key[:16]} attempt "
                        f"{attempt} was stolen; abandoning result")
                    idle_since = time.monotonic()
                    continue
                try:
                    _atomic_write(
                        layout.results / item_name(key, attempt),
                        outcome, plan)
                except OSError as exc:
                    # Persistent publish failure: hand the item back
                    # instead of dying with the result in hand.
                    log(f"publish failed for {label or key[:16]} "
                        f"attempt {attempt} ({exc}); returning claim")
                    try:
                        os.replace(claim, layout.todo / claim.name)
                    except OSError:
                        pass   # stale-claim reclaim will recover it
                    idle_since = time.monotonic()
                    continue
                claim.unlink(missing_ok=True)
                executed += 1
                idle_since = time.monotonic()
                emit("worker.executed", worker=worker_id, key=key,
                     attempt=attempt, ok=bool(outcome["ok"]),
                     wall=wall)
                log(f"{'done' if outcome['ok'] else 'error'} "
                    f"{label or key[:16]} attempt {attempt} "
                    f"({wall:.3f}s)")
        finally:
            heartbeat.stop()
            # Orderly exit (drain, idle timeout, even an in-loop
            # crash): any claim still held goes back to todo/ so no
            # other worker has to wait out the staleness window, and
            # the heartbeat + claim dir disappear so the worker
            # leaves no ghost STALE entry in `repro status`.
            returned = 0
            for path in sorted(my_claims.glob("*.json")):
                try:
                    os.replace(path, layout.todo / path.name)
                except OSError:
                    continue
                returned += 1
            heartbeat_path.unlink(missing_ok=True)
            try:
                my_claims.rmdir()   # only if empty: crashes persist
            except OSError:
                pass
            if stop_event is not None and stop_event.is_set():
                emit("worker.drained", worker=worker_id,
                     returned=returned)
                log(f"drained; returned {returned} claim(s)")
            log(f"offline after {executed} cell(s)")
            if events_out:
                emit("worker.died", worker=worker_id,
                     reason="shutdown")
    return {"worker": worker_id, "cells": executed}


# -- supervisor side ----------------------------------------------------------

class FileQueueBackend(SweepBackend):
    """Drive a sweep through a shared queue directory.

    ``workers`` local worker processes are spawned for the sweep
    (``0`` relies entirely on external ``repro worker`` processes).
    Dead local workers are respawned; their claims — and any external
    worker's claims whose heartbeat went stale — surface as ``"lost"``
    outcomes so the supervisor's retry/quarantine accounting treats a
    dead remote worker exactly like a SIGKILLed local one.
    """

    name = "fileq"
    supports_timeout = True

    def __init__(self, queue_dir: Union[str, Path], workers: int = 0,
                 heartbeat_interval: float = HEARTBEAT_INTERVAL,
                 stale_after: float = STALE_AFTER,
                 poll_interval: float = POLL_INTERVAL):
        self.layout = QueueLayout(queue_dir)
        self.workers = max(0, workers)
        self.heartbeat_interval = heartbeat_interval
        self.stale_after = stale_after
        self.poll_interval = poll_interval
        self._run_fn = None
        self._plan_text: Optional[str] = None
        self._plan: Optional[FaultPlan] = None
        self._local: Dict[str, multiprocessing.Process] = {}
        self._stop_local = None
        self._pending: List[Outcome] = []
        self._dead_ids: set = set()
        self._reported_stale: set = set()
        self._spawned = 0

    # -- lifecycle ---------------------------------------------------

    def open(self, run_fn, plan_text: Optional[str],
             cells: int) -> None:
        if run_fn is not None:
            if self.workers == 0:
                raise ValueError(
                    "fileq backend cannot ship run_fn to external "
                    "workers; spawn local workers (jobs > 0) or use "
                    "the serial/pool backend")
            from repro.sim.sweep import _ensure_picklable
            _ensure_picklable(run_fn)
        self._run_fn = run_fn
        self._plan_text = plan_text
        self._plan = (FaultPlan.parse(plan_text) if plan_text
                      else None)
        self._stop_local = multiprocessing.Event()
        self.layout.ensure()
        # Purge strays from a previous (crashed) supervisor: todo
        # items nobody will collect and results nobody expects.  Live
        # claims are left alone — their outcomes are attempt-gated.
        for where in (self.layout.todo, self.layout.results):
            for path in list(where.glob("*.json")):
                path.unlink(missing_ok=True)
            for path in list(where.glob("*.tmp*")):
                path.unlink(missing_ok=True)
        for _ in range(min(self.workers, max(1, cells))):
            self._spawn_local()

    def _spawn_local(self) -> None:
        self._spawned += 1
        worker_id = f"local-{os.getpid()}-{self._spawned}"
        process = multiprocessing.Process(
            target=worker_loop, args=(str(self.layout.root),),
            kwargs=dict(worker_id=worker_id, run_fn=self._run_fn,
                        plan_text=self._plan_text,
                        poll_interval=self.poll_interval,
                        heartbeat_interval=self.heartbeat_interval,
                        stale_after=self.stale_after,
                        stop_event=self._stop_local),
            daemon=True)
        process.start()
        self._local[worker_id] = process
        emit("worker.spawned", worker=worker_id, backend=self.name)

    def close(self) -> None:
        # Graceful first: local workers watch the stop event and exit
        # through their drain path (claims returned, heartbeat and
        # claim dir removed), so a completed sweep leaves a pristine
        # queue.  Escalate to SIGTERM/SIGKILL only for workers stuck
        # mid-cell (hangs, chaos plans).
        if self._stop_local is not None:
            self._stop_local.set()
        deadline = time.monotonic() + 2.0
        for process in self._local.values():
            process.join(
                timeout=max(0.05, deadline - time.monotonic()))
        for process in self._local.values():
            if process.is_alive():
                process.terminate()
        for process in self._local.values():
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)
        self._local = {}

    # -- execution ---------------------------------------------------

    def capacity(self) -> Optional[int]:
        return None   # queue everything; workers pull

    def dispatch(self, attempt: Attempt) -> bool:
        try:
            _atomic_write(
                self.layout.todo
                / item_name(attempt.key, attempt.attempt),
                {"key": attempt.key, "attempt": attempt.attempt,
                 "label": attempt.label, "config": attempt.data},
                self._plan)
        except OSError as exc:
            # Persistent queue-write failure: surface it as a normal
            # failed attempt so the supervisor's retry/quarantine
            # budget applies (hole + manifest entry, not a crash).
            self._pending.append(Outcome(
                key=attempt.key, attempt=attempt.attempt,
                status="error",
                error=f"queue dispatch failed: {exc}"))
        return True

    def poll(self, timeout: Optional[float]) -> List[Outcome]:
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while True:
            outcomes: List[Outcome] = self._pending
            self._pending = []
            self._drain_results(outcomes)
            self._respawn_local()
            self._reclaim_stale(outcomes)
            if outcomes:
                return outcomes
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                return []
            sleep = self.poll_interval
            if deadline is not None:
                sleep = min(sleep, deadline - now)
            time.sleep(max(sleep, 0.001))

    def cancel(self, key: str, attempt: int) -> None:
        # Remove the item if still unclaimed; a worker already running
        # it will write a result the supervisor attempt-gates away.
        path = self.layout.todo / item_name(key, attempt)
        path.unlink(missing_ok=True)

    # -- supervisor scans --------------------------------------------

    def _drain_results(self, outcomes: List[Outcome]) -> None:
        from repro.analysis.cache import result_from_dict
        for path in sorted(self.layout.results.glob("*.json")):
            data = _read_json(path)
            path.unlink(missing_ok=True)
            if data is None:
                continue
            key, attempt = data.get("key"), data.get("attempt", 0)
            if not key:
                continue
            if data.get("ok"):
                try:
                    result = result_from_dict(data["result"])
                except Exception:
                    outcomes.append(Outcome(
                        key=key, attempt=attempt, status="error",
                        error=traceback.format_exc()))
                    continue
                outcomes.append(Outcome(key=key, attempt=attempt,
                                        status="ok", result=result))
            else:
                outcomes.append(Outcome(
                    key=key, attempt=attempt, status="error",
                    error=str(data.get("error", ""))))

    def _reclaim_stale(self, outcomes: List[Outcome]) -> None:
        """Reclaim claims whose owner is dead — a dead local process,
        a stale heartbeat, or no heartbeat at all."""
        now = time.time()
        try:
            owners = [p for p in self.layout.claims.iterdir()
                      if p.is_dir()]
        except OSError:
            return
        for owner in owners:
            worker_id = owner.name
            process = self._local.get(worker_id)
            if process is not None and process.is_alive():
                continue
            if process is None and worker_id not in self._dead_ids:
                try:
                    age = (now - self.layout.heartbeat(worker_id)
                           .stat().st_mtime)
                except OSError:
                    age = None
                if age is not None and age < self.stale_after:
                    continue
                if worker_id not in self._reported_stale:
                    self._reported_stale.add(worker_id)
                    emit("worker.died", worker=worker_id,
                         reason="stale heartbeat")
            for path in sorted(owner.glob("*.json")):
                item = _read_json(path)
                try:
                    path.unlink()
                except OSError:
                    continue   # a worker stole it back first
                if item is None or "key" not in item:
                    continue
                key, attempt = item["key"], item.get("attempt", 0)
                outcomes.append(Outcome(
                    key=key, attempt=attempt, status="lost",
                    error=(f"worker {worker_id} died or went stale "
                           f"while running attempt {attempt}")))

    def _respawn_local(self) -> None:
        for worker_id, process in list(self._local.items()):
            if process.is_alive():
                continue
            process.join(timeout=0.5)
            del self._local[worker_id]
            self._dead_ids.add(worker_id)
            emit("worker.died", worker=worker_id,
                 reason=f"exit code {process.exitcode}")
            self._spawn_local()


# -- offline maintenance ------------------------------------------------------

def repair_queue(queue_dir: Union[str, Path],
                 stale_after: float = STALE_AFTER,
                 apply: bool = True) -> Dict[str, int]:
    """Fsck a queue directory: find (and with ``apply``, fix) the
    debris that crashed workers and killed supervisors leave behind.

    Four categories, returned as a count per key:

    * ``tmp_orphans`` — ``*.tmp.<pid>`` files from writers that died
      mid-``_atomic_write`` (removed);
    * ``stale_heartbeats`` — heartbeat files whose worker has been
      silent longer than ``stale_after`` (removed; any claims it
      held are requeued first, and fencing protects against the
      worker turning out to be merely stalled);
    * ``ghost_claim_dirs`` — claim dirs of dead workers (their items
      are returned to ``todo/``, counted as ``requeued_claims``, and
      the empty dir is removed);
    * ``duplicate_items`` — multiple attempts of the same cell in
      ``todo/`` (all but the highest attempt removed).

    Workers with a fresh heartbeat are never touched, so running a
    repair against a live queue is safe — it only races the same
    recovery the sweep's own reclaim logic performs.  A clean drain
    leaves nothing for it to find: every count zero.
    """
    layout = QueueLayout(queue_dir)
    report = {"tmp_orphans": 0, "stale_heartbeats": 0,
              "ghost_claim_dirs": 0, "requeued_claims": 0,
              "duplicate_items": 0}
    if not layout.root.is_dir():
        return report
    now = time.time()

    live = set()
    if layout.workers.is_dir():
        for heartbeat in layout.workers.glob("*.hb"):
            try:
                age = now - heartbeat.stat().st_mtime
            except OSError:
                continue
            if age < stale_after:
                live.add(heartbeat.stem)

    for path in sorted(layout.root.rglob("*.tmp*")):
        report["tmp_orphans"] += 1
        if apply:
            path.unlink(missing_ok=True)

    if layout.claims.is_dir():
        for owner in sorted(p for p in layout.claims.iterdir()
                            if p.is_dir()):
            if owner.name in live:
                continue
            items = sorted(owner.glob("*.json"))
            report["ghost_claim_dirs"] += 1
            report["requeued_claims"] += len(items)
            if not apply:
                continue
            for item in items:
                try:
                    os.replace(item, layout.todo / item.name)
                except OSError:
                    report["requeued_claims"] -= 1
            try:
                owner.rmdir()
            except OSError:
                report["ghost_claim_dirs"] -= 1

    if layout.workers.is_dir():
        for heartbeat in sorted(layout.workers.glob("*.hb")):
            if heartbeat.stem in live:
                continue
            report["stale_heartbeats"] += 1
            if apply:
                heartbeat.unlink(missing_ok=True)

    if layout.todo.is_dir():
        by_cell: Dict[str, List[Path]] = {}
        for item in layout.todo.glob("*.json"):
            digest = item.name.split(".a")[0]
            by_cell.setdefault(digest, []).append(item)
        for paths in by_cell.values():
            if len(paths) < 2:
                continue

            def attempt_of(path: Path) -> int:
                try:
                    return int(path.stem.rsplit(".a", 1)[1])
                except (IndexError, ValueError):
                    return -1

            paths.sort(key=attempt_of)
            for stale in paths[:-1]:
                report["duplicate_items"] += 1
                if apply:
                    stale.unlink(missing_ok=True)
    return report
