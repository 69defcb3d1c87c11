"""Observability: structured events, one fold over them, progress,
and traces.

The telemetry spine over the execution stack.  File telemetry is
opt-in (``--events-out``, or the journal of a sweep with a cache
dir); every sweep still folds its own events in memory into a
:class:`~repro.obs.ledger.SweepLedger`, about three per simulated
cell.  The simulator never emits: instrumentation lives at supervisor
/ backend / cache granularity — never inside a core's chunk loop — so
simulated results are bit-identical with or without a sink.

* :mod:`repro.obs.events` — typed, versioned event records emitted to
  a pluggable sink (JSONL file with atomic appends; none by default).
* :mod:`repro.obs.ledger` — :class:`SweepLedger`, the one reader of
  sweep events: ``SweepStats`` counts and metrics, ``--progress``,
  ``--resume`` and ``repro trace`` all read it.
* :mod:`repro.obs.progress` — a live TTY progress view driven off the
  event stream (``--progress`` on ``repro sweep`` / ``figure``).
* :mod:`repro.obs.trace` — per-cell spans exported as Chrome-trace
  JSON (``repro trace``).
"""

from repro.obs.events import (
    SCHEMA_VERSION,
    Event,
    JsonlSink,
    MultiSink,
    emit,
    read_events,
    session,
    set_sink,
)
from repro.obs.ledger import SweepLedger
from repro.obs.progress import ProgressView
from repro.obs.trace import build_trace

__all__ = [
    "SCHEMA_VERSION",
    "Event",
    "JsonlSink",
    "MultiSink",
    "ProgressView",
    "SweepLedger",
    "build_trace",
    "emit",
    "read_events",
    "session",
    "set_sink",
]
