"""The submit-level sweep API: one front door for every execution
backend.

Everything above the simulator — the CLI, the figure drivers,
``scripts/bench.py``, future services — talks to sweeps through this
module instead of hand-assembling runner + cache + fault plumbing:

* :meth:`SweepService.submit` — register one config, get a
  :class:`CellHandle` back immediately.
* :meth:`SweepService.gather` — execute every pending handle as one
  batched sweep (dedup, cache, retries) and resolve them.
* :meth:`SweepService.run_grid` — run a config grid under a
  :class:`SweepPolicy`, returning a :class:`SweepResult` (results in
  input order + stats + failure manifest).

Backend selection (``serial`` / ``pool`` / ``fileq`` / ``auto``) and
failure policy are explicit objects, so "run this grid on 4 local
workers, 2 retries, keep going" or "run it on the shared queue next
to the cache" are one-line changes::

    from repro.service import SweepPolicy, SweepService

    service = SweepService(backend="fileq", jobs=0,
                           queue_dir=".sweep-queue",
                           cache_dir=".sweep-cache",
                           policy=SweepPolicy(retries=2, strict=False))
    grid = service.run_grid(expand_grid(workloads=("bfs", "xs")))

Results are bit-identical across backends at any worker count; the
:class:`SweepPolicy` retry/quarantine contract is enforced by the
backend-agnostic supervisor in :mod:`repro.sim.sweep`.
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.obs.events import JsonlSink, session
from repro.obs.progress import ProgressView
from repro.sim.backends.base import BACKEND_NAMES, BackendSpec
from repro.sim.config import SystemConfig
from repro.sim.runner import RunResult
from repro.sim.sweep import (
    JOURNAL_DIR,
    FailureManifest,
    SweepFailure,
    SweepInterrupted,
    SweepPolicy,
    SweepStats,
    execute_sweep,
)

__all__ = [
    "BACKEND_NAMES",
    "BackendSpec",
    "CellHandle",
    "SweepFailure",
    "SweepInterrupted",
    "SweepPolicy",
    "SweepResult",
    "SweepService",
    "gather",
    "run_grid",
    "submit",
]


class CellHandle:
    """One submitted cell.  ``result()`` executes the service's whole
    pending batch on first use (so N submits still become one deduped,
    parallel sweep) and returns this cell's :class:`RunResult` —
    ``None`` if the cell was quarantined under a non-strict policy."""

    __slots__ = ("config", "key", "state", "error", "_service",
                 "_result")

    def __init__(self, config: SystemConfig, key: str,
                 service: "SweepService"):
        self.config = config
        self.key = key
        self.state = "pending"    # "pending" | "done" | "failed"
        self.error: Optional[str] = None
        self._service = service
        self._result: Optional[RunResult] = None

    def done(self) -> bool:
        return self.state != "pending"

    def result(self) -> Optional[RunResult]:
        if self.state == "pending":
            self._service.gather()
        return self._result

    def __repr__(self) -> str:
        return (f"CellHandle({self.key[:12]}, state={self.state!r})")


class SweepResult:
    """What :meth:`SweepService.run_grid` returns: results in input
    order (sequence-like), plus the stats and failure manifest."""

    __slots__ = ("results", "stats")

    def __init__(self, results: List[Optional[RunResult]],
                 stats: SweepStats):
        self.results = results
        self.stats = stats

    @property
    def manifest(self) -> FailureManifest:
        return self.stats.manifest

    @property
    def ok(self) -> bool:
        return not self.stats.manifest

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index):
        return self.results[index]

    def __repr__(self) -> str:
        return (f"SweepResult({len(self.results)} cells, "
                f"{self.stats.failed} failed)")


class SweepService:
    """A configured sweep executor: backend + cache + policy.

    Parameters
    ----------
    backend:
        ``"auto"`` (serial for one-job or single-cell sweeps, pool
        otherwise), ``"serial"``, ``"pool"``, ``"fileq"``, or a
        pre-built :class:`BackendSpec`.
    jobs:
        Worker processes — pool workers for ``pool``, *local* queue
        workers for ``fileq`` (``0`` relies on external
        ``repro worker`` processes).
    cache / cache_dir:
        A :class:`~repro.analysis.cache.ResultCache` (or compatible),
        or a directory to root one in; ``None`` disables persistence.
    policy:
        The default :class:`SweepPolicy`; per-call overrides go to
        :meth:`run_grid`.
    queue_dir:
        The fileq coordination directory (required for ``fileq``).
    events_out:
        Path of a JSONL event log; every sweep run through the
        service appends its structured telemetry there (see
        :mod:`repro.obs.events`).  ``None`` (default) keeps the
        telemetry spine disabled — a true no-op on the hot path.
    progress:
        Stream a live progress line to ``progress_stream`` (stderr
        by default) while sweeps execute.
    resume:
        Resume from the journal a killed supervisor left behind:
        per-cell attempt counts, backoff clocks, and quarantine
        decisions carry over (completed cells come from the cache
        as always).  With a ``cache_dir``, every sweep keeps its
        event log as a journal under ``<cache_dir>/journal/``
        (see :func:`repro.sim.sweep.journal_path`); a sweep without
        one has no journal.
    """

    def __init__(self, backend: Union[str, BackendSpec] = "auto",
                 jobs: int = 1, cache=None, cache_dir=None,
                 policy: Optional[SweepPolicy] = None,
                 queue_dir=None,
                 heartbeat_interval: Optional[float] = None,
                 stale_after: Optional[float] = None,
                 events_out=None, progress: bool = False,
                 progress_stream=None, resume: bool = False):
        if cache is None and cache_dir is not None:
            from repro.analysis.cache import ResultCache
            cache = ResultCache(cache_dir)
        self.journal_dir = (Path(cache_dir) / JOURNAL_DIR
                            if cache_dir is not None else None)
        self.resume = resume
        if isinstance(backend, BackendSpec):
            spec = backend
        else:
            if backend not in BACKEND_NAMES:
                raise ValueError(
                    f"unknown backend {backend!r}; expected one of "
                    f"{', '.join(BACKEND_NAMES)}")
            spec = BackendSpec(name=backend, jobs=max(0, jobs),
                               queue_dir=queue_dir)
            if heartbeat_interval is not None:
                spec.heartbeat_interval = heartbeat_interval
            if stale_after is not None:
                spec.stale_after = stale_after
        self.spec = spec
        self.cache = cache
        self.policy = policy or SweepPolicy()
        self.events_out = events_out
        self.progress = progress
        self.progress_stream = progress_stream
        self.last_stats = SweepStats()
        self._handles: Dict[str, CellHandle] = {}

    # -- identity ----------------------------------------------------

    def _key(self, config: SystemConfig) -> str:
        if self.cache is not None:
            return self.cache.key(config)
        return config.canonical_json()

    # -- submit / gather ---------------------------------------------

    def submit(self, config: SystemConfig) -> CellHandle:
        """Register one cell for execution; returns immediately.

        Submitting the same config twice returns the same handle
        (in-service dedup, on top of the sweep's own)."""
        key = self._key(config)
        handle = self._handles.get(key)
        if handle is None:
            handle = CellHandle(config, key, self)
            self._handles[key] = handle
        return handle

    def gather(self, handles: Optional[Sequence[CellHandle]] = None
               ) -> List[Optional[RunResult]]:
        """Execute pending handles as one batched sweep and resolve
        them; returns their results in the given order.  ``None``
        gathers everything submitted so far."""
        if handles is None:
            handles = list(self._handles.values())
        handles = list(handles)
        pending = [h for h in handles if h.state == "pending"]
        if pending:
            results, stats = self._execute(
                [h.config for h in pending], self.policy, None)
            failed = {f.key: f for f in stats.manifest}
            for handle, result in zip(pending, results):
                if result is not None:
                    handle._result = result
                    handle.state = "done"
                else:
                    handle.state = "failed"
                    failure = failed.get(handle.key)
                    handle.error = (failure.error if failure
                                    else "missing result")
            if self.policy.strict and stats.manifest:
                raise SweepFailure(stats.manifest)
        return [h._result for h in handles]

    # -- grid execution ----------------------------------------------

    def run_grid(self, configs: Sequence[SystemConfig],
                 policy: Optional[SweepPolicy] = None,
                 run_fn: Optional[Callable] = None) -> SweepResult:
        """Run a config grid; returns a :class:`SweepResult`.

        Under a strict policy a quarantined cell raises
        :class:`SweepFailure` *after* every healthy cell completed
        and persisted (``last_stats`` still reflects the sweep)."""
        policy = policy or self.policy
        results, stats = self._execute(configs, policy, run_fn)
        if policy.strict and stats.manifest:
            raise SweepFailure(stats.manifest)
        return SweepResult(results, stats)

    def _execute(self, configs, policy, run_fn):
        with contextlib.ExitStack() as stack:
            if self.events_out:
                stack.enter_context(
                    session(JsonlSink(self.events_out)))
            if self.progress:
                stack.enter_context(
                    session(ProgressView(
                        stream=self.progress_stream)))
            results, stats = execute_sweep(configs, spec=self.spec,
                                           policy=policy,
                                           cache=self.cache,
                                           run_fn=run_fn,
                                           journal_dir=self.journal_dir,
                                           resume=self.resume)
        self.last_stats = stats
        return results, stats


# -- module-level convenience -------------------------------------------------

_default_service: Optional[SweepService] = None


def default_service() -> SweepService:
    """The process-wide serial, cache-less service behind the
    module-level :func:`submit`."""
    global _default_service
    if _default_service is None:
        _default_service = SweepService(backend="serial")
    return _default_service


def submit(config: SystemConfig,
           service: Optional[SweepService] = None) -> CellHandle:
    return (service or default_service()).submit(config)


def gather(handles: Sequence[CellHandle]
           ) -> List[Optional[RunResult]]:
    """Resolve handles from any mix of services, preserving order."""
    handles = list(handles)
    for service in dict.fromkeys(h._service for h in handles):
        service.gather([h for h in handles
                        if h._service is service])
    return [h._result for h in handles]


def run_grid(configs: Sequence[SystemConfig],
             policy: Optional[SweepPolicy] = None,
             **service_kwargs) -> SweepResult:
    """One-shot grid execution: build a :class:`SweepService` from
    ``service_kwargs`` (``backend=``, ``jobs=``, ``cache_dir=`` ...)
    and run the grid under ``policy``."""
    return SweepService(policy=policy,
                        **service_kwargs).run_grid(configs)
