"""Tests for the structured event bus and envelope schema."""

import json

import pytest

from repro.obs.events import (
    Event,
    EventBus,
    EventOrderError,
    EventSchemaError,
    read_events_jsonl,
    validate_event_dict,
)


def make_bus(**kwargs):
    return EventBus("run-1", wall_clock=lambda: 123.5, **kwargs)


class TestEmit:
    def test_envelope_fields(self):
        bus = make_bus()
        event = bus.emit(
            "server", "dispatch", sim_time_ms=10.0, phone_id="p0"
        )
        assert event.run_id == "run-1"
        assert event.seq == 0
        assert event.sim_time_ms == 10.0
        assert event.wall_time_s == 123.5
        assert event.component == "server"
        assert event.kind == "dispatch"
        assert event.severity == "info"
        assert event.payload == {"phone_id": "p0"}

    def test_seq_increments(self):
        bus = make_bus()
        bus.emit("server", "a", sim_time_ms=0.0)
        bus.emit("server", "b", sim_time_ms=0.0)
        assert [e.seq for e in bus.events] == [0, 1]
        assert len(bus) == 2

    def test_sim_time_must_not_decrease(self):
        bus = make_bus()
        bus.emit("server", "a", sim_time_ms=100.0)
        with pytest.raises(EventOrderError):
            bus.emit("server", "b", sim_time_ms=99.9)

    def test_equal_sim_time_allowed(self):
        bus = make_bus()
        bus.emit("server", "a", sim_time_ms=100.0)
        bus.emit("server", "b", sim_time_ms=100.0)
        assert len(bus) == 2

    def test_bad_severity_rejected(self):
        with pytest.raises(EventSchemaError):
            make_bus().emit("server", "a", sim_time_ms=0.0, severity="loud")

    def test_empty_run_id_rejected(self):
        with pytest.raises(ValueError):
            EventBus("")

    def test_filters(self):
        bus = make_bus()
        bus.emit("server", "dispatch", sim_time_ms=0.0)
        bus.emit("chaos", "unplug", sim_time_ms=1.0, severity="warning")
        bus.emit("server", "complete", sim_time_ms=2.0)
        assert len(bus.of_component("server")) == 2
        assert len(bus.of_kind("unplug")) == 1


class TestValidation:
    def valid(self):
        return Event(
            run_id="r",
            seq=0,
            sim_time_ms=0.0,
            wall_time_s=1.0,
            component="server",
            kind="dispatch",
            severity="info",
            payload={},
        ).to_dict()

    def test_valid_envelope_passes(self):
        validate_event_dict(self.valid())

    @pytest.mark.parametrize(
        "mutation",
        [
            lambda d: d.pop("run_id"),
            lambda d: d.pop("payload"),
            lambda d: d.update(run_id=""),
            lambda d: d.update(seq=-1),
            lambda d: d.update(seq=1.5),
            lambda d: d.update(sim_time_ms=-1.0),
            lambda d: d.update(sim_time_ms="zero"),
            lambda d: d.update(component=""),
            lambda d: d.update(severity="loud"),
            lambda d: d.update(payload=[1, 2]),
            lambda d: d.update(extra_field=1),
        ],
    )
    def test_malformed_envelope_rejected(self, mutation):
        data = self.valid()
        mutation(data)
        with pytest.raises(EventSchemaError):
            validate_event_dict(data)

    def test_non_dict_rejected(self):
        with pytest.raises(EventSchemaError):
            validate_event_dict([1, 2, 3])


class TestJsonlRoundtrip:
    def test_write_and_read(self, tmp_path):
        bus = make_bus()
        bus.emit("server", "a", sim_time_ms=0.0, n=1)
        bus.emit("chaos", "unplug", sim_time_ms=5.0, severity="warning")
        path = tmp_path / "events.jsonl"
        assert bus.write_jsonl(path) == 2
        loaded = read_events_jsonl(path)
        assert len(loaded) == 2
        assert loaded[0]["payload"] == {"n": 1}
        assert loaded[1]["severity"] == "warning"

    def test_invalid_json_line_names_location(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(EventSchemaError, match="1"):
            read_events_jsonl(path)

    def test_schema_violation_caught(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps({"run_id": "r"}) + "\n")
        with pytest.raises(EventSchemaError):
            read_events_jsonl(path)
        # But loads without validation.
        assert read_events_jsonl(path, validate=False) == [{"run_id": "r"}]
