"""Live sweep progress driven off the event stream.

:class:`ProgressView` is an event sink that folds the sweep's events
into a :class:`~repro.obs.ledger.SweepLedger` of its own and renders
a single self-overwriting status line to a TTY (plain throttled lines
on a non-TTY), which ``--progress`` on ``repro sweep`` / ``figure``
chains next to the JSONL sink.  :func:`render` and
:func:`eta_seconds` are the pure part — testable on a ledger folded
from a synthetic event stream, with no terminal involved.
"""

from __future__ import annotations

import sys
import time
from typing import Optional

from repro.obs.events import Event, EventSink
from repro.obs.ledger import SweepLedger


def format_duration(seconds: float) -> str:
    """``90.5 -> '1m30s'``, ``42.3 -> '42s'``, ``7320 -> '2h02m'``."""
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def eta_seconds(ledger: SweepLedger, now_mono: float) -> Optional[float]:
    """Remaining wall time extrapolated from the simulated-cell
    completion rate (cache hits are effectively instant and would skew
    it); ``None`` until the first cell completes."""
    if ledger.started_mono is None or not ledger.completed:
        return None
    elapsed = now_mono - ledger.started_mono
    if elapsed <= 0:
        return None
    rate = ledger.completed / elapsed
    return max(0, ledger.total - ledger.done) / rate


def render(ledger: SweepLedger, now_mono: Optional[float] = None,
           width: int = 20) -> str:
    """One status line: bar, counts, cache rate, retries, ETA, live
    worker count.  ``total`` counts *unique* cells; cache-served cells
    are done the moment ``sweep.started`` arrives."""
    if now_mono is None:
        now_mono = time.monotonic()
    done, total = ledger.done, ledger.total
    filled = int(width * done / total) if total else 0
    bar = "#" * filled + "-" * (width - filled)
    parts = [f"[{bar}] {done}/{total} cells"]
    if ledger.cached:
        rate = min(ledger.cached / total, 1.0) if total else 0.0
        parts.append(f"{ledger.cached} cached ({rate:.0%})")
    if ledger.retries:
        parts.append(f"{ledger.retries} retries")
    if ledger.failed:
        parts.append(f"{ledger.failed} quarantined")
    eta = eta_seconds(ledger, now_mono)
    if ledger.finished:
        parts.append("done")
    elif eta is not None:
        parts.append(f"ETA {format_duration(eta)}")
    if ledger.workers:
        live = sum(1 for state in ledger.workers.values()
                   if state != "dead")
        parts.append(f"{live} worker(s)")
    return "  ".join(parts)


class ProgressView(EventSink):
    """Event sink rendering its :class:`SweepLedger` to a terminal.

    On a TTY the line overwrites itself (``\\r``) at most every
    ``interval`` seconds; on a non-TTY it degrades to occasional plain
    lines (every ``interval``, only when progress moved) so logs stay
    readable.  ``close`` prints the final state and a newline.
    """

    def __init__(self, stream=None, interval: float = 0.1):
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self.ledger = SweepLedger()
        self._isatty = bool(getattr(self.stream, "isatty",
                                    lambda: False)())
        self._last_render = 0.0
        self._last_done = -1
        self._dirty = False

    def emit(self, event: Event) -> None:
        self.ledger.observe(event)
        self._dirty = True
        now = time.monotonic()
        if now - self._last_render < self.interval:
            return
        if not self._isatty and self.ledger.done == self._last_done:
            return   # non-TTY: only when progress actually moved
        self._render(now)

    def _render(self, now: float) -> None:
        line = render(self.ledger, now)
        if self._isatty:
            self.stream.write("\r\x1b[2K" + line)
        else:
            self.stream.write(line + "\n")
        self.stream.flush()
        self._last_render = now
        self._last_done = self.ledger.done
        self._dirty = False

    def close(self) -> None:
        if self._dirty or self._isatty:
            self._render(time.monotonic())
        if self._isatty:
            self.stream.write("\n")
            self.stream.flush()
