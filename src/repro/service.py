"""The sweep API: one front door for every execution backend.

Everything above the simulator — the CLI, the figure drivers,
``scripts/bench.py``, perfbench — talks to sweeps through
:meth:`SweepService.run_grid` instead of hand-assembling runner +
cache + fault plumbing: it runs a config grid under a
:class:`SweepPolicy` and returns a :class:`SweepResult` (results in
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
from typing import Callable, List, Optional, Sequence, Union

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
    "SweepFailure",
    "SweepInterrupted",
    "SweepPolicy",
    "SweepResult",
    "SweepService",
]


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
        :mod:`repro.obs.events`).  ``None`` (default) writes no file;
        each sweep still folds its own events in memory (see
        :class:`~repro.obs.ledger.SweepLedger`), and the simulator
        itself never emits.
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

    def run_grid(self, configs: Sequence[SystemConfig],
                 policy: Optional[SweepPolicy] = None,
                 run_fn: Optional[Callable] = None) -> SweepResult:
        """Run a config grid; returns a :class:`SweepResult`.

        Under a strict policy a quarantined cell raises
        :class:`SweepFailure` *after* every healthy cell completed
        and persisted (``last_stats`` still reflects the sweep)."""
        policy = policy or self.policy
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
        if policy.strict and stats.manifest:
            raise SweepFailure(stats.manifest)
        return SweepResult(results, stats)
