"""The event log is one JSONL file, and in-memory telemetry keeps every record."""

from repro.obs import EventBus, Telemetry, read_events_jsonl


def fill(bus, n):
    for i in range(n):
        bus.emit("server", "tick", sim_time_ms=float(i), n=i)


class TestRotatingSink:
    def test_single_file_read_still_works(self, tmp_path):
        bus = EventBus("r", wall_clock=lambda: 0.0)
        fill(bus, 6)
        path = tmp_path / "events.jsonl"
        assert bus.write_jsonl(path) == 6
        events = read_events_jsonl(path)
        assert [e["seq"] for e in events] == list(range(6))


class TestEventBusRing:
    def test_unbounded_by_default(self):
        bus = EventBus("r", wall_clock=lambda: 0.0)
        fill(bus, 50)
        assert len(bus) == 50
        assert [e.seq for e in bus.events] == list(range(50))


class TestTelemetryPassthrough:
    def test_defaults_stay_unbounded(self):
        tel = Telemetry.create("run", wall_clock=lambda: 0.0)
        for i in range(10):
            tel.event("run", "k", sim_time_ms=float(i))
            tel.record_sample("s", float(i), 1.0)
        assert len(tel.bus) == 10
        assert len(tel.samplers.get_series("s")) == 10
