"""Tests for the sweep metrics a ledger reports: the duration
summaries and the sorted, JSON-safe snapshot."""

import json

import pytest

from repro.obs.events import Event
from repro.obs.ledger import SweepLedger, summary


def ev(type_, t_wall, **data):
    return Event(type=type_, t_wall=t_wall, t_mono=t_wall, seq=1,
                 pid=1, data=data)


class TestHistogram:
    """``summary`` of one duration list."""

    def test_tracks_count_sum_min_max_mean(self):
        snap = summary([0.1, 0.3, 0.2])
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(0.6)
        assert snap["min"] == pytest.approx(0.1)
        assert snap["max"] == pytest.approx(0.3)
        assert snap["mean"] == pytest.approx(0.2)

    def test_empty_histogram_snapshot(self):
        assert summary([]) == {"count": 0, "sum": 0.0, "min": None,
                               "max": None, "mean": 0.0}


class TestRegistry:
    """``SweepLedger.metrics``: the sweep's metrics snapshot."""

    def test_snapshot_is_sorted_and_json_safe(self):
        ledger = SweepLedger.fold([
            ev("sweep.started", 10.0, cells=1, unique=1, cached=0,
               missing=1, backend="serial", jobs=1),
            ev("cell.dispatched", 10.5, key="k", label="l", attempt=1),
            ev("cell.completed", 10.75, key="k", label="l", attempt=1,
               wall=0.25),
        ])
        snap = ledger.metrics({"events.dropped": 3,
                               "cache.store_errors": 0})
        assert list(snap) == sorted(snap)
        assert snap["cells.dispatched"] == 1
        assert snap["events.dropped"] == 3
        assert snap["cell.attempt_s"]["count"] == 1
        assert snap["cell.attempt_s"]["sum"] == 0.25
        assert snap["cell.queue_wait_s"]["max"] == 0.5
        assert snap["cache.store_s"]["count"] == 0
        # Fault counters appear only when non-zero.
        for name in ("cache.store_errors", "cells.quarantined",
                     "cells.timeout", "workers.lost"):
            assert name not in snap
        json.dumps(snap)   # must be plain data

    def test_fault_counters_follow_their_events(self):
        ledger = SweepLedger.fold([
            ev("cell.dispatched", 1.0, key="k", label="l", attempt=1),
            ev("cell.timeout", 2.0, key="k", label="l", attempt=1),
            ev("cell.failed", 2.0, key="k", label="l", attempt=1,
               kind="timeout"),
            ev("cell.dispatched", 3.0, key="k", label="l", attempt=2),
            ev("cell.failed", 4.0, key="k", label="l", attempt=2,
               kind="worker-died"),
            ev("cell.quarantined", 4.0, key="k", label="l",
               attempts=2, kind="worker-died"),
        ])
        snap = ledger.metrics()
        assert snap["cells.dispatched"] == 2
        assert snap["cells.timeout"] == 1
        assert snap["workers.lost"] == 1
        assert snap["cells.quarantined"] == 1
        assert ledger.retries == 1
