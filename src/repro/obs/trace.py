"""Per-cell spans from an event log, exported as Chrome-trace JSON.

Reconstructs each sweep cell's lifecycle — queued → (claimed) →
attempt(s) → cached — from a JSONL event file and renders it in the
Chrome trace-event format (load ``chrome://tracing`` /
https://ui.perfetto.dev and drop the file in), so "why did this cell
spend 40 s queued" is one glance instead of log archaeology.

Lanes (``tid``) are cells, ordered by first dispatch; each attempt is
a complete-span (``ph: "X"``) whose duration is dispatch → outcome,
preceded by a ``queued`` span from when the cell last became ready
(sweep start, or its previous failure) to the dispatch.  Worker claim
events (fileq) nest an ``executing`` span inside the attempt on the
same lane, attributed to the worker.  Cache stores and quarantines
land as instant events.  Timestamps are wall-clock microseconds
relative to the first event, so multi-process logs align.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.obs.events import Event, read_events
from repro.obs.ledger import SweepLedger

#: Synthetic pid for all sweep lanes in the trace.
TRACE_PID = 1


def _microseconds(t_wall: float, origin: float) -> float:
    return round((t_wall - origin) * 1e6, 1)


def build_trace(events: Iterable[Event],
                cell: Optional[str] = None) -> Dict[str, object]:
    """Chrome-trace dict (``{"traceEvents": [...]}``) from events.

    Folds every event into a :class:`~repro.obs.ledger.SweepLedger`
    and formats its spans.  ``cell`` keeps only the lanes whose label
    or key contains the substring.  Tolerates incomplete lifecycles (a
    killed sweep leaves dispatched cells with no outcome: their
    attempt spans are simply omitted) and unknown event types (forward
    compatibility).
    """
    ledger = SweepLedger.fold(events)
    origin = ledger.first_wall
    lanes: Dict[str, int] = {}          # cell key -> tid
    trace: List[Dict[str, object]] = []

    def label(key: str) -> Optional[str]:
        record = ledger.cells.get(key)
        return record.label if record is not None else None

    for span in ledger.spans:
        if cell and cell not in span.key and cell not in (
                label(span.key) or ""):
            continue
        entry: Dict[str, object] = {"name": span.name, "cat": "cell"}
        if span.end is None:
            entry.update(ph="i", s="t",
                         ts=_microseconds(span.start, origin))
        else:
            entry.update(ph="X", ts=_microseconds(span.start, origin),
                         dur=round(max(0.0, span.end - span.start)
                                   * 1e6, 1))
        entry.update(pid=TRACE_PID,
                     tid=lanes.setdefault(span.key, len(lanes) + 1),
                     args=span.args)
        trace.append(entry)

    # Name the lanes after their cells (metadata events).
    for key, tid in lanes.items():
        name = label(key)
        trace.append({
            "name": "thread_name", "ph": "M", "pid": TRACE_PID,
            "tid": tid,
            "args": {"name": name if name is not None else key[:16]},
        })
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def export_trace(events_path: Union[str, Path],
                 out_path: Union[str, Path],
                 cell: Optional[str] = None) -> Dict[str, object]:
    """Read a JSONL event log, build the trace (``cell`` filters lanes,
    as in :func:`build_trace`), write it to ``out_path``; returns the
    trace dict."""
    trace = build_trace(read_events(events_path, strict=False), cell)
    Path(out_path).write_text(json.dumps(trace) + "\n")
    return trace
