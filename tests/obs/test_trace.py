"""Tests for the Chrome-trace export of per-cell spans."""

import json

from repro.obs.events import Event
from repro.obs.trace import TRACE_PID, build_trace, export_trace


def ev(type_, t_wall, **data):
    return Event(type=type_, t_wall=t_wall, t_mono=t_wall - 100.0,
                 seq=int(t_wall * 10) % 1000, pid=1, data=data)


def lifecycle_events():
    return [
        ev("sweep.started", 100.0, cells=2, unique=2, cached=0,
           missing=2, backend="pool", jobs=2),
        ev("cell.dispatched", 100.1, key="k1", label="bfs/radix",
           attempt=1),
        ev("cell.dispatched", 100.1, key="k2", label="bfs/ndpage",
           attempt=1),
        ev("worker.claim", 100.15, worker="w1", key="k1", attempt=1),
        ev("cell.completed", 100.3, key="k1", label="bfs/radix",
           attempt=1, wall=0.2),
        ev("cache.store", 100.31, key="k1", wall=0.001),
        ev("cell.failed", 100.2, key="k2", label="bfs/ndpage",
           attempt=1, kind="error"),
        ev("cell.retried", 100.2, key="k2", label="bfs/ndpage",
           attempt=1, delay=0.25),
        ev("cell.dispatched", 100.5, key="k2", label="bfs/ndpage",
           attempt=2),
        ev("cell.completed", 100.7, key="k2", label="bfs/ndpage",
           attempt=2, wall=0.2),
        ev("sweep.finished", 100.8, cells=2, completed=2, failed=0,
           retries=1, wall=0.8),
    ]


class TestBuildTrace:
    def test_empty_input(self):
        assert build_trace([]) \
            == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_shape_of_a_full_lifecycle(self):
        trace = build_trace(lifecycle_events())
        entries = trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"
        for entry in entries:
            assert entry["pid"] == TRACE_PID
            assert entry["ph"] in ("X", "i", "M")
            if entry["ph"] == "X":
                assert entry["ts"] >= 0
                assert entry["dur"] >= 0

    def test_attempt_spans_and_queue_spans(self):
        entries = build_trace(lifecycle_events())["traceEvents"]
        spans = [e for e in entries if e["ph"] == "X"]
        names = [e["name"] for e in spans]
        assert names.count("queued") == 3    # k1, k2, k2-retry
        assert names.count("attempt") == 2   # the two completions
        assert "attempt (error)" in names    # k2's failed attempt
        # k1's fileq claim nests an executing span on the same lane.
        executing = [e for e in spans if e["name"] == "executing"]
        assert len(executing) == 1
        assert executing[0]["args"]["worker"] == "w1"

    def test_retry_queue_span_starts_at_the_failure(self):
        entries = build_trace(lifecycle_events())["traceEvents"]
        k2_lane = next(e["tid"] for e in entries
                       if e["ph"] == "M"
                       and e["args"]["name"] == "bfs/ndpage")
        queued = [e for e in entries if e["ph"] == "X"
                  and e["name"] == "queued" and e["tid"] == k2_lane]
        # Second queue span: failure at 100.2 -> redispatch at 100.5.
        assert queued[1]["ts"] == 200000.0
        assert queued[1]["dur"] == 300000.0

    def test_lanes_named_after_cell_labels(self):
        entries = build_trace(lifecycle_events())["traceEvents"]
        names = {e["args"]["name"] for e in entries
                 if e["ph"] == "M"}
        assert names == {"bfs/radix", "bfs/ndpage"}

    def test_incomplete_lifecycle_tolerated(self):
        events = lifecycle_events()[:3]   # dispatches, no outcomes
        entries = build_trace(events)["traceEvents"]
        assert all(e["name"] != "attempt" for e in entries
                   if e["ph"] == "X")


class TestExportTrace:
    def write_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("".join(e.to_json() + "\n"
                                for e in lifecycle_events()))
        return path

    def test_exports_valid_json(self, tmp_path):
        log = self.write_log(tmp_path)
        out = tmp_path / "trace.json"
        trace = export_trace(log, out)
        assert json.loads(out.read_text()) == trace
        assert trace["traceEvents"]

    def test_cell_filter_keeps_a_lane_whole(self, tmp_path):
        """``worker.claim`` and ``cache.store`` carry only the key, so
        the filter must apply to folded lanes, not to raw events."""
        log = self.write_log(tmp_path)

        def radix_spans(trace):
            lane = next(e["tid"] for e in trace["traceEvents"]
                        if e["ph"] == "M"
                        and e["args"]["name"] == "bfs/radix")
            return [e["name"] for e in trace["traceEvents"]
                    if e["ph"] != "M" and e["tid"] == lane]

        full = export_trace(log, tmp_path / "full.json")
        only = export_trace(log, tmp_path / "radix.json", cell="radix")
        assert radix_spans(only) == radix_spans(full) == [
            "queued", "attempt", "executing", "cache.store"]

    def test_cell_filter_keeps_matching_lanes_only(self, tmp_path):
        log = self.write_log(tmp_path)
        out = tmp_path / "trace.json"
        trace = export_trace(log, out, cell="ndpage")
        names = {e["args"]["name"]
                 for e in trace["traceEvents"] if e["ph"] == "M"}
        assert names == {"bfs/ndpage"}
