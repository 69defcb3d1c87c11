"""Tests for the progress line and its ETA math, driven by synthetic
event streams folded into a ledger — no sweep, no terminal."""

import io

import pytest

from repro.obs.events import Event
from repro.obs.ledger import SweepLedger
from repro.obs.progress import (
    ProgressView,
    eta_seconds,
    format_duration,
    render,
)


def ev(type_, t_mono=0.0, **data):
    return Event(type=type_, t_wall=1000.0 + t_mono, t_mono=t_mono,
                 seq=1, pid=1, data=data)


def started(unique=10, cached=4, t_mono=0.0):
    return ev("sweep.started", t_mono=t_mono, cells=unique,
              unique=unique, cached=cached, missing=unique - cached,
              backend="pool", jobs=2)


def fold(*events):
    return SweepLedger.fold(events)


class TestFormatDuration:
    def test_seconds(self):
        assert format_duration(42.3) == "42s"

    def test_minutes(self):
        assert format_duration(90.5) == "1m30s"

    def test_hours(self):
        assert format_duration(7320) == "2h02m"

    def test_negative_clamped(self):
        assert format_duration(-5) == "0s"


class TestStateFolding:
    def test_sweep_started_seeds_totals(self):
        ledger = fold(started(unique=10, cached=4))
        assert ledger.total == 10
        assert ledger.done == 4
        assert "4/10 cells  4 cached (40%)" in render(ledger, 0.0)

    def test_completions_and_quarantines_advance_done(self):
        ledger = fold(
            started(unique=10, cached=4),
            ev("cell.completed", t_mono=1.0, key="a", label="a",
               attempt=1, wall=1.0),
            ev("cell.quarantined", t_mono=2.0, key="b", label="b",
               attempts=2, kind="error"))
        assert ledger.done == 6
        assert ledger.completed == 1
        assert ledger.failed == 1

    def test_workers_tracked_by_last_event(self):
        ledger = fold(
            ev("worker.spawned", worker="w1", backend="pool"),
            ev("worker.spawned", worker="w2", backend="pool"),
            ev("worker.died", worker="w2", reason="kill"))
        assert ledger.workers["w1"] == "idle"
        assert ledger.workers["w2"] == "dead"


class TestEta:
    def test_none_before_first_completion(self):
        assert eta_seconds(fold(started()), now_mono=5.0) is None

    def test_extrapolates_from_completion_rate(self):
        ledger = fold(started(unique=10, cached=4, t_mono=0.0), *(
            ev("cell.completed", t_mono=10.0 * (i + 1), key=key,
               label=key, attempt=1, wall=1.0)
            for i, key in enumerate(("a", "b"))))
        # 2 cells in 20 s -> 0.1 cells/s; 4 remaining -> 40 s.
        assert eta_seconds(ledger, now_mono=20.0) == pytest.approx(40.0)

    def test_cached_cells_do_not_inflate_the_rate(self):
        # 9 of 10 served by cache, 1 simulated in 10 s: the last
        # 0 remaining gives ETA 0 -- but with another one pending the
        # rate must come from the single simulated cell only.
        ledger = fold(
            started(unique=10, cached=8, t_mono=0.0),
            ev("cell.completed", t_mono=10.0, key="a", label="a",
               attempt=1, wall=10.0))
        assert eta_seconds(ledger, now_mono=10.0) == pytest.approx(10.0)


class TestRender:
    def test_render_mentions_counts_and_eta(self):
        ledger = fold(
            started(unique=10, cached=4, t_mono=0.0),
            ev("cell.completed", t_mono=10.0, key="a", label="a",
               attempt=1, wall=1.0),
            ev("cell.retried", t_mono=11.0, key="b", label="b",
               attempt=1, delay=0.25),
            ev("cell.dispatched", t_mono=11.5, key="b", label="b",
               attempt=2))
        line = render(ledger, now_mono=10.0)
        assert "5/10 cells" in line
        assert "4 cached (40%)" in line
        assert "1 retries" in line
        assert "ETA" in line

    def test_retry_counted_at_the_re_dispatch(self):
        ledger = fold(
            started(unique=2, cached=0),
            ev("cell.retried", t_mono=1.0, key="b", label="b",
               attempt=1, delay=0.25))
        assert "retries" not in render(ledger, now_mono=1.0)

    def test_render_done_when_finished(self):
        ledger = fold(
            started(unique=2, cached=2),
            ev("sweep.finished", t_mono=1.0, cells=2, completed=0,
               failed=0, retries=0, wall=1.0))
        assert "done" in render(ledger, now_mono=1.0)


class TestView:
    def test_non_tty_prints_line_per_progress_step(self):
        stream = io.StringIO()
        view = ProgressView(stream=stream, interval=0.0)
        view.emit(started(unique=2, cached=0))
        view.emit(ev("cell.completed", t_mono=1.0, key="a",
                     label="a", attempt=1, wall=1.0))
        view.emit(ev("cell.completed", t_mono=2.0, key="b",
                     label="b", attempt=1, wall=1.0))
        view.close()
        lines = [line for line in stream.getvalue().splitlines()
                 if line]
        assert any("2/2 cells" in line for line in lines)
        assert "\r" not in stream.getvalue()
