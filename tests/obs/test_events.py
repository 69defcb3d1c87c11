"""Tests for the typed event records and their sinks."""

import json

import pytest

from repro.obs.events import (
    EVENT_TYPES,
    SCHEMA_VERSION,
    Event,
    EventSink,
    JsonlSink,
    MultiSink,
    dropped_events,
    emit,
    get_sink,
    read_events,
    session,
    set_sink,
)


class MemorySink(EventSink):
    """Collect events in a list."""

    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


class TestSchema:
    def test_round_trip_through_json(self):
        event = Event(type="cell.completed", t_wall=1700000000.5,
                      t_mono=12.25, seq=3, pid=4242,
                      data={"key": "k1", "label": "bfs/radix",
                            "attempt": 1, "wall": 0.5})
        again = Event.from_json(event.to_json())
        assert again == event

    def test_record_carries_schema_version(self):
        event = Event(type="cache.hit", t_wall=1.0, t_mono=2.0,
                      seq=1, pid=1, data={"key": "k"})
        record = json.loads(event.to_json())
        assert record["v"] == SCHEMA_VERSION
        assert record["type"] == "cache.hit"
        assert record["key"] == "k"

    def test_every_type_declares_required_fields(self):
        for fields in EVENT_TYPES.values():
            assert isinstance(fields, tuple)

    def test_unknown_type_rejected_when_enabled(self):
        set_sink(MemorySink())
        with pytest.raises(ValueError, match="unknown event type"):
            emit("cell.exploded", key="k")

    def test_missing_field_rejected_when_enabled(self):
        set_sink(MemorySink())
        with pytest.raises(ValueError, match="missing required"):
            emit("cell.completed", key="k")


class TestNullDefault:
    def test_emit_is_noop_without_sink(self):
        assert get_sink() is None
        assert emit("cache.hit", key="k") is None

    def test_disabled_path_skips_validation(self):
        # The no-sink early return happens before any schema check:
        # nonsense types cost nothing and raise nothing.
        assert emit("definitely.not.a.type") is None


class TestOrdering:
    def test_seq_strictly_increases_and_mono_nondecreasing(self):
        sink = MemorySink()
        set_sink(sink)
        for _ in range(50):
            emit("cache.hit", key="k")
        seqs = [e.seq for e in sink.events]
        monos = [e.t_mono for e in sink.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        assert monos == sorted(monos)


class TestJsonlSink:
    def test_write_and_read_back(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with session(JsonlSink(path)):
            first = emit("cache.hit", key="a")
            second = emit("cache.store", key="b", wall=0.01)
        events = list(read_events(path))
        assert events == [first, second]

    def test_appends_across_sessions(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with session(JsonlSink(path)):
            emit("cache.hit", key="a")
        with session(JsonlSink(path)):
            emit("cache.hit", key="b")
        keys = [e.data["key"] for e in read_events(path)]
        assert keys == ["a", "b"]

    def test_read_events_strict_raises_on_garbage(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"not": "an event"}\n')
        with pytest.raises(ValueError, match="malformed"):
            list(read_events(path))
        assert list(read_events(path, strict=False)) == []


class TestSession:
    def test_session_installs_and_restores(self, tmp_path):
        sink = MemorySink()
        with session(sink):
            assert get_sink() is sink
            emit("cache.hit", key="k")
        assert get_sink() is None
        assert [e.type for e in sink.events] == ["cache.hit"]

    def test_nested_sessions_compose(self):
        outer, inner = MemorySink(), MemorySink()
        with session(outer):
            emit("cache.hit", key="outer-only")
            with session(inner):
                emit("cache.hit", key="both")
            emit("cache.hit", key="outer-again")
        assert [e.data["key"] for e in outer.events] \
            == ["outer-only", "both", "outer-again"]
        assert [e.data["key"] for e in inner.events] == ["both"]

    def test_session_closes_sink_on_exit(self, tmp_path):
        sink = JsonlSink(tmp_path / "events.jsonl")
        with session(sink):
            emit("cache.hit", key="k")
        assert sink._fd is None

    def test_multisink_fans_out(self):
        first, second = MemorySink(), MemorySink()
        set_sink(MultiSink([first, second]))
        event = emit("cache.hit", key="k")
        assert first.events == [event]
        assert second.events == [event]


class TestDroppedEvents:
    """Telemetry must never take the sweep down: failing sink writes
    are dropped, counted, and surfaced — not raised."""

    def _failing_sink(self, tmp_path):
        from repro.sim.faults import FaultPlan
        return JsonlSink(tmp_path / "events.jsonl",
                         fault_plan=FaultPlan.parse("ioerr:events/:*"))

    def test_failing_writes_are_counted_not_raised(self, tmp_path,
                                                   capsys):
        from repro.sim.faults import reset_fired
        reset_fired()
        sink = self._failing_sink(tmp_path)
        with session(sink):
            emit("cache.hit", key="k1")
            emit("cache.hit", key="k2")
            assert dropped_events() == 2
        assert sink.dropped == 2
        assert (tmp_path / "events.jsonl").read_text() == ""
        # Exactly one warning, on the first drop.
        stderr = capsys.readouterr().err
        assert stderr.count("dropping events") == 1
        reset_fired()

    def test_transient_fault_is_retried_not_dropped(self, tmp_path):
        from repro.sim.faults import FaultPlan, reset_fired
        reset_fired()
        sink = JsonlSink(tmp_path / "events.jsonl",
                         fault_plan=FaultPlan.parse("ioerr:events/:1"))
        with session(sink):
            first = emit("cache.hit", key="k1")
            second = emit("cache.hit", key="k2")
        assert sink.dropped == 0
        assert list(read_events(tmp_path / "events.jsonl")) \
            == [first, second]
        reset_fired()

    def test_plan_is_resolved_when_the_sink_opens(self, tmp_path,
                                                  monkeypatch):
        from repro.sim.faults import FAULT_PLAN_ENV
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        sink = JsonlSink(tmp_path / "events.jsonl")
        monkeypatch.setenv(FAULT_PLAN_ENV, "ioerr:events/:*")
        with session(sink):
            emit("cache.hit", key="k")
        assert sink.dropped == 0

    def test_selective_fault_drops_only_matching_events(
            self, tmp_path):
        from repro.sim.faults import FaultPlan, reset_fired
        reset_fired()
        sink = JsonlSink(
            tmp_path / "events.jsonl",
            fault_plan=FaultPlan.parse("ioerr:events/cache.hit:*"))
        with session(sink):
            emit("cache.hit", key="k")
            emit("cache.store", key="k", wall=0.1)
        assert sink.dropped == 1
        assert [e.type for e in read_events(tmp_path / "events.jsonl")] \
            == ["cache.store"]
        reset_fired()

    def test_dropped_events_recurses_multisink(self, tmp_path):
        from repro.sim.faults import reset_fired
        reset_fired()
        failing = self._failing_sink(tmp_path)
        healthy = MemorySink()
        set_sink(MultiSink([healthy, failing]))
        emit("cache.hit", key="k")
        assert dropped_events() == 1
        assert len(healthy.events) == 1   # other sinks still receive
        reset_fired()

    def test_no_sink_reports_zero(self):
        assert dropped_events() == 0
        assert dropped_events(MemorySink()) == 0

    def test_healthy_sink_counts_nothing(self, tmp_path):
        sink = JsonlSink(tmp_path / "events.jsonl")
        with session(sink):
            emit("cache.hit", key="k")
        assert sink.dropped == 0
        assert dropped_events(sink) == 0
