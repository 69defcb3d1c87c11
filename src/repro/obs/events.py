"""Typed, versioned telemetry events with pluggable sinks.

Every observable step of a sweep — dispatch, completion, retry,
quarantine, worker birth and death, cache traffic — is an
:class:`Event`: a named record with both a wall-clock and a monotonic
timestamp, a per-process sequence number, and a flat payload dict
whose required fields are declared per event type in
:data:`EVENT_TYPES` (the schema; version :data:`SCHEMA_VERSION`).

The module-level sink starts as ``None`` and :func:`emit` returns
immediately when no sink is installed — one global load and an ``is
None`` test.  Every sweep installs its own
:class:`~repro.obs.ledger.SweepLedger` for its duration, so a sweep
builds about three events per simulated cell in memory; writing them
to a file stays opt-in.  Call sites live at supervisor / backend /
cache granularity (per cell, per worker), never inside the
per-reference simulation loop: the simulator itself never emits.

Sinks are tiny: :class:`JsonlSink` appends one JSON object per line
through a single ``os.write`` on an ``O_APPEND`` descriptor, so
concurrent writers (the supervisor and forked local workers sharing
the inherited descriptor, or external workers given the same path on
one host) interleave whole lines, never partial ones.
:class:`MultiSink` fans one emission out to several sinks (e.g. a
JSONL file plus a live progress view).

Ordering guarantees: within one process, ``seq`` is strictly
increasing and ``t_mono`` is non-decreasing across emitted events, so
a JSONL file written by a single process is replayable in order;
merged multi-process files sort stably by ``(t_mono, pid, seq)``
(CLOCK_MONOTONIC is machine-wide on Linux).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

#: Version of the event record schema, carried by every event (``v``).
#: Bump when a field is renamed/removed or an event type changes
#: meaning; adding new event types or optional payload fields is
#: backward compatible and keeps the version.
SCHEMA_VERSION = 1

#: The schema: event type -> required payload fields.  Emitting an
#: unknown type, or omitting a required field, raises ``ValueError``
#: (only when a sink is installed — the disabled path never looks).
EVENT_TYPES: Dict[str, tuple] = {
    # sweep lifecycle (the backend-agnostic supervisor)
    "sweep.started": ("cells", "unique", "cached", "missing",
                      "backend", "jobs"),
    "sweep.finished": ("cells", "completed", "failed", "retries",
                       "wall"),
    # per-cell attempt lifecycle
    "cell.dispatched": ("key", "label", "attempt"),
    "cell.completed": ("key", "label", "attempt", "wall"),
    "cell.failed": ("key", "label", "attempt", "kind"),
    "cell.retried": ("key", "label", "attempt", "delay"),
    "cell.timeout": ("key", "label", "attempt"),
    # optional: error, the last 500 characters of the last traceback
    "cell.quarantined": ("key", "label", "attempts", "kind"),
    # sweep interruption (graceful SIGTERM/SIGINT drain)
    "sweep.interrupted": ("completed", "pending", "requeued"),
    # worker lifecycle (pool and fileq backends)
    "worker.spawned": ("worker", "backend"),
    "worker.died": ("worker", "reason"),
    "worker.drained": ("worker", "returned"),
    "worker.heartbeat": ("worker", "executed"),
    "worker.claim": ("worker", "key", "attempt"),
    "worker.executed": ("worker", "key", "attempt", "ok", "wall"),
    "worker.log": ("worker", "message"),
    # result-cache traffic
    "cache.hit": ("key",),
    "cache.store": ("key", "wall"),
    "cache.corrupt": ("key",),
}


@dataclass
class Event:
    """One telemetry record.

    ``t_wall`` is ``time.time()`` (cross-host alignment, trace
    export); ``t_mono`` is ``time.monotonic()`` (durations, ordering);
    ``seq`` is the emitting process's strictly increasing counter and
    ``pid`` scopes it.  ``data`` is the flat per-type payload.
    """

    type: str
    t_wall: float
    t_mono: float
    seq: int
    pid: int
    data: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "v": SCHEMA_VERSION, "type": self.type,
            "t_wall": self.t_wall, "t_mono": self.t_mono,
            "seq": self.seq, "pid": self.pid,
        }
        record.update(self.data)
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "Event":
        data = {k: v for k, v in record.items()
                if k not in ("v", "type", "t_wall", "t_mono", "seq",
                             "pid")}
        return cls(type=record["type"],
                   t_wall=record["t_wall"],
                   t_mono=record["t_mono"],
                   seq=record["seq"],
                   pid=record["pid"],
                   data=data)

    @classmethod
    def from_json(cls, line: str) -> "Event":
        return cls.from_dict(json.loads(line))


# -- sinks --------------------------------------------------------------------

class EventSink:
    """Sink protocol: receive events, release resources on close."""

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class JsonlSink(EventSink):
    """Append events to a JSONL file, one atomic write per event.

    The descriptor is opened ``O_APPEND``, and each event goes out as
    exactly one ``os.write`` of a complete line, so multiple writers
    on the same file — the supervisor and its forked local workers, or
    several processes handed the same path — interleave whole records.
    This is the one line writer: ``--events-out`` logs and the sweep
    journal (see :mod:`repro.sim.sweep`) are both JsonlSinks.

    Each write runs under :func:`~repro.sim.faults.guarded_io` at the
    ``events/<event type>`` site, so a transient ``OSError`` is
    retried with bounded backoff.  Telemetry must never take the
    sweep down with it: a persistent failure (ENOSPC, a yanked
    filesystem, an injected ``ioerr``) drops that event instead of
    raising.  Drops are counted (``dropped``; :func:`dropped_events`
    sums them for the ``events.dropped`` counter of the sweep's
    metrics) and the first one prints a single stderr warning.
    """

    def __init__(self, path: Union[str, Path], fault_plan=None):
        # Imported here: repro.sim pulls this module in at package
        # import time.
        from repro.sim.faults import FaultPlan, guarded_io
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self.dropped = 0
        self._warned = False
        # Resolved once, so a write with no plan reads no environment
        # variable.
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        self._plan = fault_plan or FaultPlan()
        self._guarded_io = guarded_io

    def emit(self, event: Event) -> None:
        line = (event.to_json() + "\n").encode("utf-8")
        try:
            self._guarded_io(lambda: os.write(self._fd, line),
                             "events", event.type, self._plan)
        except OSError as exc:
            self.dropped += 1
            if not self._warned:
                self._warned = True
                import sys
                print(f"repro: warning: event sink {self.path}: "
                      f"write failed ({exc}); dropping events "
                      f"(counted, not fatal)", file=sys.stderr)

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None


class MultiSink(EventSink):
    """Fan one emission out to several sinks."""

    def __init__(self, sinks):
        self.sinks = list(sinks)

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


# -- the process-wide sink ----------------------------------------------------

_sink: Optional[EventSink] = None
_seq = itertools.count(1)
_lock = threading.Lock()


def get_sink() -> Optional[EventSink]:
    return _sink


def set_sink(sink: Optional[EventSink]) -> Optional[EventSink]:
    """Install ``sink`` as the process-wide sink; returns the previous
    one (``None`` disables emission again)."""
    global _sink
    previous = _sink
    _sink = sink
    return previous


@contextmanager
def session(sink: EventSink):
    """Scope ``sink`` over a block, composing with any already-active
    sink (both receive every event) and closing ``sink`` on exit."""
    previous = get_sink()
    active = (sink if previous is None
              else MultiSink([previous, sink]))
    set_sink(active)
    try:
        yield sink
    finally:
        set_sink(previous)
        sink.close()


def dropped_events(sink: Optional[EventSink] = None) -> int:
    """Events dropped by ``sink`` (default: the installed sink tree).

    Recurses through :class:`MultiSink` compositions and sums the
    ``dropped`` counters of any sink that keeps one (today
    :class:`JsonlSink`); the sweep supervisor folds this into the
    metrics snapshot as the ``events.dropped`` counter.
    """
    if sink is None:
        sink = _sink
    if sink is None:
        return 0
    if isinstance(sink, MultiSink):
        return sum(dropped_events(inner) for inner in sink.sinks)
    return int(getattr(sink, "dropped", 0))


def emit(type_: str, **data) -> Optional[Event]:
    """Emit one event to the installed sink.

    With no sink installed this is a no-op returning ``None`` — the
    default, and the reason instrumented call sites need no guards.
    Payloads are validated against :data:`EVENT_TYPES` only on the
    enabled path.
    """
    sink = _sink
    if sink is None:
        return None
    required = EVENT_TYPES.get(type_)
    if required is None:
        raise ValueError(f"unknown event type {type_!r}")
    missing = [name for name in required if name not in data]
    if missing:
        raise ValueError(
            f"event {type_!r} missing required field(s) "
            f"{', '.join(missing)}")
    with _lock:
        seq = next(_seq)
    event = Event(type=type_, t_wall=time.time(),
                  t_mono=time.monotonic(), seq=seq, pid=os.getpid(),
                  data=data)
    sink.emit(event)
    return event


# -- reading ------------------------------------------------------------------

def read_events(path: Union[str, Path],
                strict: bool = True) -> Iterator[Event]:
    """Parse a JSONL event file back into :class:`Event` records.

    ``strict=True`` (default) raises on a malformed line;
    ``strict=False`` skips them (a file a crashed process was mid-way
    through is still mostly readable — though whole-line appends make
    partial lines rare).
    """
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield Event.from_json(line)
            except (json.JSONDecodeError, KeyError) as exc:
                if strict:
                    raise ValueError(
                        f"{path}:{lineno}: malformed event line: "
                        f"{exc}") from exc
