"""One fold over a sweep's event stream.

A sweep records each transition once, as an event
(:mod:`repro.obs.events`), and :class:`SweepLedger` is the only code
that interprets them.  It folds events into three kinds of state:

* the sweep's **totals** — cells, cache hits, completions,
  quarantines, dispatches, retries, timeouts, worker deaths, and each
  worker's last known state;
* each **cell's** record — its label, charged attempts, wall-clock
  backoff gate and quarantine payload (what ``--resume`` restores),
  plus the open dispatch and claim its spans need;
* the per-cell **spans** — ``queued``, ``attempt``, ``executing`` and
  the ``cache.store`` / ``quarantined`` instants — and the duration
  lists behind the sweep's metrics.

Every consumer reads a ledger: ``SweepStats`` counts and metrics (the
supervisor installs one as a sink for each sweep), the ``--progress``
line, ``--resume`` (:meth:`SweepLedger.replay` of the journal), and
``repro trace`` (:func:`repro.obs.trace.build_trace`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from repro.obs.events import Event, EventSink, read_events

#: The duration lists a ledger keeps, by metric name.
DURATIONS = ("cell.queue_wait_s", "cell.attempt_s", "cache.store_s")


class Span(NamedTuple):
    """One interval on a cell's lane; an instant when ``end`` is None.
    Times are wall-clock (``Event.t_wall``)."""

    name: str
    key: str
    start: float
    end: Optional[float]
    args: Dict[str, object]


class CellRecord:
    """What the ledger knows about one cell."""

    __slots__ = ("label", "attempts", "gate", "quarantined", "ready_at",
                 "dispatched", "claims")

    def __init__(self):
        self.label: Optional[str] = None     # from its first dispatch
        #: The highest attempt a ``cell.failed`` charged.  A dispatch
        #: whose supervisor died reported nothing, so it stays
        #: uncharged and a resumed sweep re-dispatches it.
        self.attempts = 0
        #: Wall-clock backoff gate: ``t_wall + delay`` of the last
        #: ``cell.retried``, cleared by ``cell.completed`` or
        #: ``cell.quarantined``.
        self.gate: Optional[float] = None
        #: The ``cell.quarantined`` payload, once the sweep gave up.
        self.quarantined: Optional[Dict[str, object]] = None
        self.ready_at: Optional[float] = None   # last attempt outcome
        self.dispatched: Dict[object, float] = {}   # attempt -> t_wall
        self.claims: Dict[object, Tuple[str, float]] = {}


def summary(values: List[float]) -> Dict[str, object]:
    """``count`` / ``sum`` / ``min`` / ``max`` / ``mean`` of durations,
    rounded to the microsecond; JSON-safe."""
    total = sum(values, 0.0)
    return {
        "count": len(values),
        "sum": round(total, 6),
        "min": round(min(values), 6) if values else None,
        "max": round(max(values), 6) if values else None,
        "mean": round(total / len(values), 6) if values else 0.0,
    }


class SweepLedger(EventSink):
    """The fold of one sweep's events; an :class:`EventSink`, so it can
    observe a live sweep or replay a log (:meth:`fold`,
    :meth:`replay`)."""

    def __init__(self):
        self.total = 0            # unique cells (sweep.started)
        self.cached = 0           # of which served from the cache
        self.completed = 0
        self.failed = 0           # quarantined
        self.dispatched = 0
        self.retries = 0          # dispatches with attempt > 1
        self.timeouts = 0
        self.worker_deaths = 0    # cell.failed with kind worker-died
        self.finished = False
        self.workers: Dict[str, str] = {}   # worker -> state / key
        self.first_wall: Optional[float] = None   # first event seen
        self.start_wall: Optional[float] = None   # sweep.started
        self.started_mono: Optional[float] = None
        self.cells: Dict[str, CellRecord] = {}
        self.spans: List[Span] = []
        self.durations: Dict[str, List[float]] = {
            name: [] for name in DURATIONS}

    @classmethod
    def fold(cls, events: Iterable[Event]) -> "SweepLedger":
        """Fold ``events`` sorted by ``(t_wall, pid, seq)``, so logs
        merged from several processes replay in time order."""
        ledger = cls()
        for event in sorted(events,
                            key=lambda e: (e.t_wall, e.pid, e.seq)):
            ledger.observe(event)
        return ledger

    @classmethod
    def replay(cls, path: Union[str, Path]) -> "SweepLedger":
        """Fold a JSONL event log.  A missing file folds to nothing and
        malformed lines (a torn last append) are skipped."""
        try:
            events = list(read_events(path, strict=False))
        except OSError:
            events = []
        return cls.fold(events)

    @property
    def done(self) -> int:
        """Cells with a final state: cached, completed or quarantined."""
        return self.cached + self.completed + self.failed

    def _cell(self, key: str) -> CellRecord:
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = CellRecord()
        return cell

    def observe(self, event: Event) -> None:
        """Fold one event; unknown types are ignored."""
        kind, data, now = event.type, event.data, event.t_wall
        if self.first_wall is None:
            self.first_wall = self.start_wall = now
        key = data.get("key")
        if kind == "sweep.started":
            self.total = data.get("unique", 0)
            self.cached = data.get("cached", 0)
            self.start_wall = now
            self.started_mono = event.t_mono
        elif kind == "sweep.finished":
            self.finished = True
        elif kind == "cell.dispatched" and key:
            cell = self._cell(key)
            attempt = data.get("attempt")
            self.dispatched += 1
            if (attempt or 0) > 1:
                self.retries += 1
            if cell.label is None:
                cell.label = str(data.get("label", key[:12]))
            queued_since = (cell.ready_at if cell.ready_at is not None
                            else self.start_wall)
            self.spans.append(Span("queued", key, queued_since, now,
                                   {"attempt": attempt}))
            cell.dispatched[attempt] = now
            ready = cell.gate if cell.gate is not None else self.start_wall
            self.durations["cell.queue_wait_s"].append(
                max(0.0, now - ready))
        elif kind in ("cell.completed", "cell.failed",
                      "cell.timeout") and key:
            self._settle(kind, key, data, now)
        elif kind == "cell.retried" and key:
            self._cell(key).gate = now + data.get("delay", 0.0)
        elif kind == "cell.quarantined" and key:
            cell = self._cell(key)
            self.failed += 1
            cell.gate = None
            cell.quarantined = data
            self.spans.append(Span("quarantined", key, now, None, {
                "kind": data.get("kind"),
                "attempts": data.get("attempts")}))
        elif kind == "cache.store" and key:
            self.spans.append(Span("cache.store", key, now, None, {}))
            self.durations["cache.store_s"].append(data.get("wall", 0.0))
        elif kind == "worker.spawned":
            self.workers[str(data.get("worker"))] = "idle"
        elif kind == "worker.died":
            self.workers[str(data.get("worker"))] = "dead"
        elif kind == "worker.claim":
            worker = str(data.get("worker"))
            self.workers[worker] = str(key or "")[:12]
            if key:
                self._cell(key).claims[data.get("attempt")] = (worker, now)

    emit = observe      # the EventSink protocol

    def _settle(self, kind: str, key: str, data: Dict[str, object],
                now: float) -> None:
        """An attempt's outcome: close its spans, then count it."""
        cell = self._cell(key)
        attempt = data.get("attempt")
        started = cell.dispatched.pop(attempt, None)
        if started is not None:
            name = ("attempt" if kind == "cell.completed"
                    else f"attempt ({data.get('kind', 'timeout')})")
            self.spans.append(Span(name, key, started, now, {
                "attempt": attempt, "status": kind.split(".")[1]}))
        claim = cell.claims.pop(attempt, None)
        if claim is not None:
            worker, claimed_at = claim
            self.spans.append(Span("executing", key, claimed_at, now, {
                "attempt": attempt, "worker": worker}))
        cell.ready_at = now     # queued again if retried
        if kind == "cell.completed":
            self.completed += 1
            cell.gate = None
            self.durations["cell.attempt_s"].append(data.get("wall", 0.0))
        elif kind == "cell.failed":
            cell.attempts = max(cell.attempts, attempt or 0)
            if data.get("kind") == "worker-died":
                self.worker_deaths += 1
        else:
            self.timeouts += 1

    def metrics(self, counters: Optional[Dict[str, int]] = None
                ) -> Dict[str, object]:
        """The sweep's metrics snapshot, sorted by name: the dispatch
        count and the duration summaries, plus each non-zero counter —
        the ledger's own fault counts and the caller's ``counters``."""
        counts = {"cells.quarantined": self.failed,
                  "cells.timeout": self.timeouts,
                  "workers.lost": self.worker_deaths,
                  **(counters or {})}
        metrics: Dict[str, object] = {"cells.dispatched": self.dispatched}
        for name, values in self.durations.items():
            metrics[name] = summary(values)
        metrics.update((name, count) for name, count in counts.items()
                       if count)
        return dict(sorted(metrics.items()))
