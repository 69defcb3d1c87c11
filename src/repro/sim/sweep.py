"""Backend-agnostic sweep orchestration over independent simulations.

Every paper figure is a cross product of independent ``run_once`` calls
(workload x mechanism x system x core count), so wall-clock time scales
with the whole grid even though no cell depends on another.  The sweep
layer restores the obvious parallelism: :func:`execute_sweep` fans
configs out through a pluggable :class:`~repro.sim.backends.base.\
SweepBackend` — in-process ``serial``, supervised local ``pool``
workers, or the multi-host ``fileq`` queue — and memoizes finished
cells in an on-disk :class:`~repro.analysis.cache.ResultCache`, making
every sweep parallel, resumable, and fault tolerant.

The *supervisor loop* here is the interface contract, identical for
every backend: bounded retries with exponential backoff, per-cell
timeouts (where the backend can preempt), and quarantine into a
:class:`FailureManifest`.  Backends only report attempt outcomes —
``ok``, ``error``, or ``lost`` (the executor vanished) — so a dead
remote worker is the same event as a SIGKILLed local one.

Guarantees the figure drivers rely on:

* **Bit identity.**  The simulator is deterministic across processes
  (seeded RNGs, integer PWC indexing), so a sweep run on any backend
  at any worker count returns results identical field-for-field to
  the serial loop; the golden-stats tests would catch any divergence.
* **Order preservation.**  One result per input config, in input
  order, regardless of completion order.
* **Dedup.**  Identical configs inside one sweep (e.g. a shared radix
  baseline) are simulated once and the result is shared.
* **Resumability.**  Results are persisted to the cache the moment they
  arrive (atomically, one file per cell), so an interrupted sweep —
  Ctrl-C, OOM-killed worker, CI timeout — leaves behind exactly the
  finished cells and a re-run simulates only the missing ones.  A
  sweep with a cache dir also keeps a *journal*: its own event log,
  written beside the cache (:func:`journal_path`).  ``--resume``
  folds it back (:meth:`~repro.obs.ledger.SweepLedger.replay`), so a
  killed supervisor's retry budgets, backoff clocks and quarantines
  carry over.
* **Fault isolation.**  Executors report per-cell outcomes (result or
  captured traceback), so one raising cell cannot poison its worker
  or the sweep.  A cell that keeps failing is *quarantined*: the
  sweep completes every other cell and reports the casualties in the
  manifest.  ``strict=True`` (the default policy) raises
  :class:`SweepFailure` at the end — after completing everything
  completable; ``strict=False`` returns ``None`` in the quarantined
  cells' slots, which the figure drivers render as explicit holes.

Callers go through :mod:`repro.service`::

    from repro.service import SweepPolicy, SweepService

    service = SweepService(backend="pool", jobs=4,
                           cache_dir=".sweep-cache",
                           policy=SweepPolicy(retries=1, strict=False))
    grid = service.run_grid(expand_grid(workloads=("bfs", "xs"),
                                        mechanisms=("radix", "ndpage")))
    print(grid.stats.summary())

Fault injection (tests, CI chaos job) threads a
:class:`~repro.sim.faults.FaultPlan` through the executors — see
:mod:`repro.sim.faults`.
"""

from __future__ import annotations

import contextlib
import hashlib
import pickle
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs.events import JsonlSink, dropped_events, emit, session
from repro.obs.ledger import CellRecord, SweepLedger
from repro.sim.backends.base import Attempt, BackendSpec, SweepBackend
from repro.sim.config import SystemConfig, cpu_config, ndp_config
from repro.sim.faults import FaultPlan, cell_label
from repro.sim.runner import RunResult

#: Subdirectory of the cache dir that holds the sweep journals.
JOURNAL_DIR = "journal"


def derive_seed(base_seed: int, *parts) -> int:
    """Deterministic per-cell seed from a base seed and cell identity.

    Stable across processes and runs (SHA-256, not ``hash()``), and
    independent of the cell's position in the sweep, so adding cells to
    a grid never changes the seeds of existing ones.
    """
    text = ":".join([str(base_seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def expand_grid(workloads: Sequence[str] = ("rnd",),
                mechanisms: Sequence[str] = ("radix",),
                systems: Sequence[str] = ("ndp",),
                core_counts: Sequence[int] = (1,),
                refs_per_core: int = 5000,
                scale: float = 1.0,
                seed: int = 42,
                vary_seed: bool = False,
                **overrides) -> List[SystemConfig]:
    """Cross product of sweep axes as a flat config list.

    Cells are ordered workload-major (workload, mechanism, system,
    cores) to match the serial figure loops.  With ``vary_seed`` each
    cell gets a :func:`derive_seed`-derived seed instead of the shared
    base seed — deterministic, but distinct per cell.
    """
    configs = []
    for workload, mechanism, system, cores in product(
            workloads, mechanisms, systems, core_counts):
        cell_seed = (derive_seed(seed, workload, mechanism, system,
                                 cores)
                     if vary_seed else seed)
        factory = ndp_config if system == "ndp" else cpu_config
        configs.append(factory(
            workload=workload, mechanism=mechanism, num_cores=cores,
            refs_per_core=refs_per_core, scale=scale, seed=cell_seed,
            **overrides))
    return configs


# -- failure accounting -------------------------------------------------------

@dataclass
class CellFailure:
    """One quarantined cell: why the sweep gave up on it."""

    key: str          # cache key / canonical identity
    label: str        # human-readable cell_label()
    attempts: int     # dispatches spent before quarantine
    kind: str         # "error" | "timeout" | "worker-died"
    error: str        # last traceback / diagnosis

    def to_dict(self) -> Dict[str, object]:
        return {"key": self.key, "label": self.label,
                "attempts": self.attempts, "kind": self.kind,
                "error": self.error}


@dataclass
class FailureManifest:
    """The cells a sweep could not complete, with their post-mortems."""

    failures: List[CellFailure] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.failures)

    def __bool__(self) -> bool:
        return bool(self.failures)

    def __iter__(self):
        return iter(self.failures)

    def format(self) -> str:
        """Readable multi-line report (what the CLI prints)."""
        if not self.failures:
            return "failure manifest: empty"
        lines = [f"failure manifest: {len(self.failures)} cell(s) "
                 f"quarantined"]
        for failure in self.failures:
            lines.append(f"  {failure.label} [{failure.key[:12]}] — "
                         f"{failure.kind} after {failure.attempts} "
                         f"attempt(s)")
            tail = failure.error.strip().splitlines()
            if tail:
                lines.append(f"    {tail[-1]}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {"failed": len(self.failures),
                "failures": [f.to_dict() for f in self.failures]}


class SweepFailure(RuntimeError):
    """Strict-mode terminal error: raised *after* the sweep completed
    every healthy cell, carrying the manifest of the ones it didn't."""

    def __init__(self, manifest: FailureManifest):
        super().__init__(manifest.format())
        self.manifest = manifest


class SweepInterrupted(KeyboardInterrupt):
    """Graceful drain: the supervisor caught SIGTERM/SIGINT, cancelled
    the backend's in-flight work, emitted ``sweep.interrupted``, and
    unwound.  Every completed cell is already in the cache and the
    journal (if enabled) preserves retry budgets and backoff clocks —
    re-running the same command with ``--resume`` continues where the
    sweep stopped.  Subclasses :class:`KeyboardInterrupt` so generic
    ``except Exception`` recovery code does not swallow a drain.
    """

    def __init__(self, completed: int, pending: int, requeued: int):
        super().__init__(
            f"sweep interrupted: {completed} cell(s) completed, "
            f"{requeued} in flight requeued, {pending} still pending")
        self.completed = completed
        self.pending = pending
        self.requeued = requeued


@dataclass
class SweepStats:
    """What the last sweep actually did."""

    cells: int = 0            # configs requested
    unique: int = 0           # after in-sweep dedup
    cache_hits: int = 0       # unique cells served from disk
    simulated: int = 0        # unique cells actually run
    jobs: int = 1
    wall_seconds: float = 0.0
    references: int = 0       # simulated references (fresh cells only)
    failed: int = 0           # manifest entries (quarantined, cache-io)
    retries: int = 0          # re-dispatches (any reason)
    timeouts: int = 0         # cell attempts killed for exceeding timeout
    worker_deaths: int = 0    # workers that died mid-cell (and respawns)
    manifest: FailureManifest = field(default_factory=FailureManifest)
    #: Telemetry snapshot (queue-wait / attempt-wall / cache-store
    #: summaries and dispatch counters) from the sweep's
    #: :class:`~repro.obs.ledger.SweepLedger`; empty when no cell was
    #: simulated.
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def refs_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.references / self.wall_seconds

    def summary(self) -> str:
        text = (f"{self.cells} cells ({self.unique} unique): "
                f"{self.cache_hits} cached, {self.simulated} simulated "
                f"on {self.jobs} worker(s) in {self.wall_seconds:.2f} s"
                + (f" ({self.refs_per_sec:,.0f} refs/s)"
                   if self.simulated else ""))
        if self.failed or self.retries:
            text += (f" [{self.failed} quarantined, "
                     f"{self.retries} retried, "
                     f"{self.timeouts} timeouts, "
                     f"{self.worker_deaths} worker deaths]")
        return text


# -- execution policy ---------------------------------------------------------

@dataclass(frozen=True)
class SweepPolicy:
    """How a sweep treats misbehaving cells — one explicit object in
    place of the old kwarg pile, shared by every backend.

    ``retries`` re-dispatches are granted to a failing cell before it
    is quarantined (``retries=1`` means at most 2 attempts).
    ``cell_timeout`` seconds bound one attempt where the backend can
    preempt (pool kills the worker; fileq abandons the attempt; the
    in-process serial backend cannot preempt).  ``backoff`` is the
    base re-dispatch delay, doubling per subsequent attempt.  With
    ``strict=True`` a quarantined cell raises :class:`SweepFailure`
    after the sweep completed every healthy cell; ``strict=False``
    leaves ``None`` holes instead.  ``fault_plan`` injects
    deterministic faults (defaults to ``REPRO_FAULT_PLAN``).
    """

    retries: int = 1
    cell_timeout: Optional[float] = None
    backoff: float = 0.25
    strict: bool = True
    fault_plan: Optional[Union[FaultPlan, str]] = None

    def active_plan(self) -> Optional[FaultPlan]:
        plan = self.fault_plan
        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        if plan is None:
            plan = FaultPlan.from_env()
        return plan if plan else None


def _ensure_picklable(run_fn: Callable) -> None:
    """Fail fast — before any worker is spawned — on a ``run_fn`` the
    pool could not ship (lambda, closure, bound local), instead of the
    opaque mid-sweep ``PicklingError`` the old pool loop produced."""
    try:
        pickle.dumps(run_fn)
    except Exception as exc:
        raise ValueError(
            f"run_fn {run_fn!r} is not picklable, so it cannot be "
            f"dispatched to worker processes (jobs > 1): pass a "
            f"top-level function, or run with jobs=1") from exc


# -- the journal --------------------------------------------------------------

def journal_path(root: Union[str, Path], keys: Iterable[str]) -> Path:
    """The journal of the sweep over ``keys``, under ``root``.

    Named by a digest of the sorted unique keys, so the same grid —
    however its cells were enumerated — resumes from the same file.
    """
    text = "\n".join(sorted(keys))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    return Path(root) / f"sweep-{digest}.journal.jsonl"


# -- the backend-agnostic supervisor ------------------------------------------

class _CellWork:
    """One unique cell's dispatch state inside the supervisor."""

    __slots__ = ("key", "config", "data", "label", "attempt",
                 "not_before", "deadline", "dispatched_at")

    def __init__(self, key: str, config: SystemConfig):
        self.key = key
        self.config = config
        self.data = config.to_dict()
        self.label = cell_label(config)
        self.attempt = 0                       # dispatches so far
        self.not_before = 0.0                  # backoff gate
        self.deadline: Optional[float] = None  # timeout gate
        self.dispatched_at = 0.0               # cell.completed's wall


def execute_sweep(configs: Sequence[SystemConfig],
                  spec: Optional[BackendSpec] = None,
                  policy: Optional[SweepPolicy] = None,
                  cache=None,
                  run_fn: Optional[Callable] = None,
                  journal_dir=None,
                  resume: bool = False,
                  ) -> Tuple[List[Optional[RunResult]], SweepStats]:
    """Run every config through the selected backend; never raises on
    quarantine (callers apply ``policy.strict`` to the returned stats).

    Returns ``(results-in-input-order, stats)``; quarantined cells
    yield ``None`` slots and appear in ``stats.manifest``.

    Every sweep folds its own events into a
    :class:`~repro.obs.ledger.SweepLedger`, installed as a sink from
    ``sweep.started`` through ``sweep.finished``; the stats' retry,
    timeout and worker-death counts and the metrics snapshot are read
    from it when the sweep ends.

    ``journal_dir`` enables the crash-resume journal: the sweep's own
    event log, one JSONL file per sweep identity under that directory
    (:func:`journal_path`), open over the same span.  A fresh run
    starts it anew; with ``resume=True`` the journal a killed
    supervisor left behind is folded back
    (:meth:`~repro.obs.ledger.SweepLedger.replay`) and appended to,
    restoring per-cell attempt counts, backoff clocks, and quarantine
    decisions, while the cache restores the completed cells.
    """
    spec = spec or BackendSpec()
    policy = policy or SweepPolicy()
    start = time.perf_counter()

    keys = [cache.key(config) if cache is not None
            else config.canonical_json() for config in configs]

    # In-sweep dedup: first occurrence wins.
    unique: Dict[str, SystemConfig] = {}
    for key, config in zip(keys, configs):
        unique.setdefault(key, config)

    results: Dict[str, RunResult] = {}
    if cache is not None:
        for key, config in unique.items():
            cached = cache.load(config, key=key)
            if cached is not None:
                results[key] = cached

    missing = [(key, config) for key, config in unique.items()
               if key not in results]
    stats = SweepStats(cells=len(configs), unique=len(unique),
                       cache_hits=len(unique) - len(missing),
                       simulated=len(missing),
                       jobs=max(1, spec.jobs))

    ledger = SweepLedger()
    with contextlib.ExitStack() as stack:
        resumed = None
        if journal_dir is not None:
            path = journal_path(journal_dir, unique)
            if resume:
                resumed = SweepLedger.replay(path).cells
            else:
                path.unlink(missing_ok=True)
            stack.enter_context(session(JsonlSink(
                path, fault_plan=policy.active_plan())))
        stack.enter_context(session(ledger))
        emit("sweep.started", cells=len(configs), unique=len(unique),
             cached=stats.cache_hits, missing=len(missing),
             backend=spec.name, jobs=spec.jobs)
        if missing:
            backend = spec.resolve(len(missing), policy.cell_timeout)
            _execute_missing(backend, missing, results, run_fn, stats,
                             policy, cache, resumed)
            stats.metrics = ledger.metrics({
                "cache.store_errors": sum(
                    1 for failure in stats.manifest
                    if failure.kind == "cache-io"),
                "events.dropped": dropped_events()})

        stats.failed = len(stats.manifest)
        stats.retries = ledger.retries
        stats.timeouts = ledger.timeouts
        stats.worker_deaths = ledger.worker_deaths
        stats.references = sum(
            results[key].references for key, _ in missing
            if key in results)
        stats.wall_seconds = time.perf_counter() - start
        emit("sweep.finished", cells=stats.cells,
             completed=len(missing) - stats.failed,
             failed=stats.failed, retries=stats.retries,
             wall=round(stats.wall_seconds, 6))
    return [results.get(key) for key in keys], stats


def _execute_missing(backend: SweepBackend, missing, results, run_fn,
                     stats: SweepStats, policy: SweepPolicy, cache,
                     resumed: Optional[Dict[str, CellRecord]] = None
                     ) -> None:
    """The supervisor loop: dispatch cells into the backend, collect
    outcomes, and apply the retry/backoff/timeout/quarantine contract
    uniformly — the backend only executes attempts and reports what
    became of them.

    This loop also emits the canonical per-cell telemetry: every
    attempt's lifecycle (``cell.dispatched`` → ``cell.completed`` /
    ``cell.failed`` → ``cell.retried`` / ``cell.quarantined``) is
    emitted *here*, supervisor-side, so the event log is complete for
    every backend — including attempts whose executor vanished without
    reporting anything.  Beyond its control state it records only the
    failure manifest; counts and timings come from the sweep's ledger.

    Resilience duties (all optional): ``resumed`` (a previous run's
    journal, folded by :meth:`~repro.obs.ledger.SweepLedger.replay`)
    restores attempt counts, backoff gates, and quarantine decisions;
    and SIGTERM/SIGINT (main thread only) triggers a graceful drain —
    cancel in-flight attempts, emit ``sweep.interrupted``, raise
    :class:`SweepInterrupted`.
    """
    plan = policy.active_plan()
    plan_text = plan.to_text() if plan is not None else None
    timeout = (policy.cell_timeout if backend.supports_timeout
               else None)

    resumed = resumed or {}
    start_mono = time.monotonic()
    start_wall = time.time()
    works: List[_CellWork] = []
    for key, config in missing:
        cell = _CellWork(key, config)
        past = resumed.get(key) or CellRecord()   # no history
        info = past.quarantined
        if info is not None:
            # Quarantine decisions survive the supervisor: the
            # previous run gave up on this cell, so this one does not
            # silently grant it a fresh retry budget.
            error = (info.get("error")
                     or "quarantined by a previous run (journal)")
            emit("cell.quarantined", key=key, label=cell.label,
                 attempts=info["attempts"], kind=info["kind"],
                 error=error)
            stats.manifest.failures.append(CellFailure(
                key=key, label=cell.label, attempts=info["attempts"],
                kind=info["kind"], error=error))
            stats.simulated -= 1
            continue
        cell.attempt = past.attempts
        gate = past.gate or 0.0
        if gate > start_wall:
            cell.not_before = start_mono + (gate - start_wall)
        works.append(cell)
    ready: deque = deque(c for c in works
                         if c.not_before <= start_mono)
    waiting: List[_CellWork] = [c for c in works
                                if c.not_before > start_mono]
    inflight: Dict[str, _CellWork] = {}
    outstanding = len(works)

    def settle_ok(cell: _CellWork, result, now: float) -> None:
        wall = now - cell.dispatched_at
        results[cell.key] = result
        if cache is not None:
            try:
                cache.store(cell.config, result, key=cell.key)
            except OSError as exc:
                # Persistent store failure (ENOSPC, dead disk):
                # degrade to a cache hole plus a manifest entry — the
                # in-memory result is still served, this run
                # completes, the next one re-simulates the cell.
                stats.manifest.failures.append(CellFailure(
                    key=cell.key, label=cell.label,
                    attempts=cell.attempt, kind="cache-io",
                    error=(f"result computed but cache store "
                           f"failed: {exc}")))
        emit("cell.completed", key=cell.key, label=cell.label,
             attempt=cell.attempt, wall=round(wall, 6))

    def failed(cell: _CellWork, kind: str, error: str,
               now: float) -> int:
        """Retry or quarantine a failed attempt; returns settled."""
        emit("cell.failed", key=cell.key, label=cell.label,
             attempt=cell.attempt, kind=kind)
        if cell.attempt >= policy.retries + 1:
            emit("cell.quarantined", key=cell.key, label=cell.label,
                 attempts=cell.attempt, kind=kind,
                 error=error.strip()[-500:])
            stats.manifest.failures.append(CellFailure(
                key=cell.key, label=cell.label,
                attempts=cell.attempt, kind=kind, error=error))
            return 1
        delay = policy.backoff * (2 ** (cell.attempt - 1))
        cell.not_before = now + delay
        emit("cell.retried", key=cell.key, label=cell.label,
             attempt=cell.attempt, delay=round(delay, 6))
        waiting.append(cell)
        return 0

    # Graceful drain: note SIGTERM/SIGINT and unwind at the next loop
    # boundary instead of dying wherever the signal lands.  Handlers
    # are process-global state, so only the main thread installs them.
    interrupts: List[int] = []
    previous_handlers: Dict[int, object] = {}
    if threading.current_thread() is threading.main_thread():
        def _note_signal(signum, frame):
            interrupts.append(signum)
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous_handlers[signum] = signal.signal(
                    signum, _note_signal)
            except (ValueError, OSError):   # pragma: no cover
                pass

    def drain() -> SweepInterrupted:
        for key, cell in list(inflight.items()):
            backend.cancel(key, cell.attempt)
        completed = sum(1 for key, _ in missing if key in results)
        pending = len(ready) + len(waiting)
        emit("sweep.interrupted", completed=completed,
             pending=pending, requeued=len(inflight))
        return SweepInterrupted(completed=completed, pending=pending,
                                requeued=len(inflight))

    backend.open(run_fn, plan_text, len(missing))
    try:
        while outstanding:
            if interrupts:
                raise drain()
            now = time.monotonic()
            if waiting:
                due = [c for c in waiting if c.not_before <= now]
                if due:
                    waiting = [c for c in waiting
                               if c.not_before > now]
                    ready.extend(due)

            # Dispatch ready cells into the backend's capacity.
            capacity = backend.capacity()
            while ready and (capacity is None
                             or len(inflight) < capacity):
                cell = ready.popleft()
                cell.attempt += 1
                if not backend.dispatch(Attempt(
                        key=cell.key, data=cell.data,
                        label=cell.label, attempt=cell.attempt)):
                    # The attempt never started (e.g. the worker died
                    # while idle): it must not count against the cell.
                    cell.attempt -= 1
                    ready.appendleft(cell)
                    break
                now = time.monotonic()
                cell.deadline = ((now + timeout) if timeout
                                 else None)
                cell.dispatched_at = now
                emit("cell.dispatched", key=cell.key,
                     label=cell.label, attempt=cell.attempt)
                inflight[cell.key] = cell

            if not inflight:
                # Everything is backoff-delayed; sleep it off (in
                # slices, so a drain signal is noticed promptly).
                delay = min((c.not_before for c in waiting),
                            default=now) - now
                if delay > 0:
                    time.sleep(min(delay, 0.5)
                               if previous_handlers else delay)
                continue

            sleeps = [c.deadline - now for c in inflight.values()
                      if c.deadline is not None]
            sleeps += [c.not_before - now for c in waiting]
            wait_for = max(0.0, min(sleeps)) if sleeps else None
            if previous_handlers:
                # Bound the poll so a noted signal drains promptly
                # even when every in-flight cell is long-running.
                wait_for = (0.5 if wait_for is None
                            else min(wait_for, 0.5))
            outcomes = backend.poll(wait_for)
            now = time.monotonic()

            for outcome in outcomes:
                cell = inflight.get(outcome.key)
                if cell is None:
                    continue   # already settled (late duplicate)
                if outcome.status == "ok":
                    # Results are deterministic, so an ok outcome is
                    # accepted even from a superseded attempt.
                    del inflight[outcome.key]
                    settle_ok(cell, outcome.result, now)
                    outstanding -= 1
                    continue
                if outcome.attempt != cell.attempt:
                    continue   # stale failure from an old attempt
                del inflight[outcome.key]
                kind = ("worker-died" if outcome.status == "lost"
                        else "error")
                outstanding -= failed(cell, kind, outcome.error, now)

            if timeout:
                for key, cell in list(inflight.items()):
                    if cell.deadline is None or now < cell.deadline:
                        continue
                    backend.cancel(key, cell.attempt)
                    del inflight[key]
                    emit("cell.timeout", key=cell.key,
                         label=cell.label, attempt=cell.attempt)
                    error = (f"cell exceeded cell_timeout="
                             f"{policy.cell_timeout}s on attempt "
                             f"{cell.attempt}; worker killed")
                    outstanding -= failed(cell, "timeout", error, now)
    finally:
        backend.close()
        for signum, handler in previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError, TypeError):  # pragma: no cover
                pass
