"""Tests for the trace bus, JSONL sink, and filtering tools."""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import (
    CATEGORIES,
    JsonlSink,
    TraceBus,
    TraceEvent,
    filter_events,
    format_event,
    iter_jsonl,
    severity_level,
)


class TestTraceEvent:
    def test_dict_round_trip(self):
        event = TraceEvent(
            time_s=1.5,
            category="packet",
            name="packet.finished",
            severity="warning",
            node_id=3,
            fields={"delivered": False, "retransmissions": 2},
        )
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_json_round_trip(self):
        event = TraceEvent(time_s=0.0, category="engine", name="engine.run_started")
        rebuilt = TraceEvent.from_dict(json.loads(event.to_json()))
        assert rebuilt == event

    def test_optional_keys_omitted(self):
        record = TraceEvent(time_s=0.0, category="wu", name="wu.received").to_dict()
        assert "node_id" not in record
        assert "fields" not in record


class TestTraceBus:
    def test_emit_and_select(self):
        bus = TraceBus()
        assert bus.emit(1.0, "packet", "packet.generated", node_id=1)
        assert bus.emit(2.0, "fault", "fault.ack_lost", node_id=2)
        assert len(bus) == 2
        assert [e.name for e in bus.select(category="packet")] == ["packet.generated"]
        assert [e.time_s for e in bus.select(node_id=2)] == [2.0]

    def test_ring_buffer_keeps_newest(self):
        bus = TraceBus(capacity=3)
        for i in range(10):
            bus.emit(float(i), "engine", "tick", index=i)
        assert len(bus) == 3
        assert [e.time_s for e in bus.events] == [7.0, 8.0, 9.0]
        assert bus.dropped == 7
        assert bus.emitted == 10

    def test_category_filter(self):
        bus = TraceBus(categories=("fault",))
        assert not bus.emit(0.0, "packet", "packet.generated")
        assert bus.emit(0.0, "fault", "fault.brownout")
        assert len(bus) == 1

    def test_severity_filter(self):
        bus = TraceBus(min_severity="warning")
        assert not bus.wants("packet", "debug")
        assert bus.wants("packet", "error")
        assert not bus.emit(0.0, "packet", "packet.generated", severity="debug")
        assert bus.emit(0.0, "packet", "packet.dropped", severity="warning")

    def test_rejects_unknown_category(self):
        with pytest.raises(ConfigurationError):
            TraceBus(categories=("nonsense",))

    def test_rejects_unknown_severity(self):
        with pytest.raises(ConfigurationError):
            TraceBus(min_severity="loud")

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            TraceBus(capacity=0)

    def test_sink_sees_evicted_events(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        bus = TraceBus(capacity=2, sink=JsonlSink(path))
        for i in range(5):
            bus.emit(float(i), "engine", "tick")
        bus.close()
        events = list(iter_jsonl(path))
        assert len(events) == 5  # sink got every accepted event
        assert len(bus) == 2  # ring retained only the newest

    def test_held_events_wait_for_publish(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        bus = TraceBus(capacity=2, categories=("packet",), sink=JsonlSink(path))
        bus.emit(0.0, "packet", "packet.generated")
        bus.hold()
        assert bus.emit(1.0, "packet", "packet.finished", node_id=4)
        assert not bus.emit(1.0, "engine", "tick")  # filtered while holding
        bus.emit(2.0, "packet", "packet.dropped")
        held = bus.release()
        assert [e.name for e in held] == ["packet.finished", "packet.dropped"]
        # Nothing held was retained, sunk or counted.
        assert (len(bus), bus.emitted, bus.dropped) == (1, 1, 0)
        bus.emit(3.0, "packet", "packet.attempt")  # live again
        bus.publish(held)
        assert (bus.emitted, bus.dropped) == (4, 2)
        assert [e.time_s for e in bus.events] == [1.0, 2.0]
        bus.close()
        assert [e.time_s for e in iter_jsonl(path)] == [0.0, 3.0, 1.0, 2.0]

    def test_publish_filters_like_emit(self):
        bus = TraceBus(min_severity="info")
        bus.publish(
            [
                TraceEvent(0.0, "packet", "packet.attempt", "debug"),
                TraceEvent(0.0, "packet", "packet.finished", "info"),
            ]
        )
        assert [e.name for e in bus.events] == ["packet.finished"]
        assert bus.emitted == 1


class TestJsonl:
    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with TraceBus(sink=JsonlSink(path)) as bus:
            bus.emit(1.0, "wu", "wu.disseminated", node_id=4, w_byte=128)
            bus.emit(2.0, "battery", "battery.degradation", severity="debug")
        events = list(iter_jsonl(path))
        assert [e.name for e in events] == ["wu.disseminated", "battery.degradation"]
        assert events[0].fields["w_byte"] == 128
        assert events[1].severity == "debug"


def _events():
    return [
        TraceEvent(0.0, "packet", "packet.generated", "debug", 1),
        TraceEvent(5.0, "packet", "packet.finished", "info", 1),
        TraceEvent(6.0, "fault", "fault.ack_lost", "warning", 2),
        TraceEvent(9.0, "energy", "energy.brownout", "warning", 1),
    ]


class TestFilterEvents:
    def test_by_category(self):
        kept = list(filter_events(_events(), categories=("fault",)))
        assert [e.name for e in kept] == ["fault.ack_lost"]

    def test_by_node_and_severity(self):
        kept = list(filter_events(_events(), node_id=1, min_severity="info"))
        assert [e.name for e in kept] == ["packet.finished", "energy.brownout"]

    def test_by_name_substring_and_time(self):
        kept = list(filter_events(_events(), name_substring="packet", since_s=1.0))
        assert [e.name for e in kept] == ["packet.finished"]
        kept = list(filter_events(_events(), until_s=5.0))
        assert len(kept) == 2

    def test_format_event_is_one_line(self):
        line = format_event(_events()[2])
        assert "\n" not in line
        assert "fault.ack_lost" in line
        assert "node=2" in line


def test_severity_levels_ordered():
    assert severity_level("debug") < severity_level("info")
    assert severity_level("info") < severity_level("warning")
    assert severity_level("warning") < severity_level("error")
    with pytest.raises(ConfigurationError):
        severity_level("verbose")


def test_categories_are_stable():
    # docs/OBSERVABILITY.md documents this taxonomy; extend, don't rename.
    assert set(CATEGORIES) == {
        "packet", "window", "energy", "battery", "wu", "fault", "engine",
        "perf",
    }
