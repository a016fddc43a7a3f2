"""Tests for the telemetry facade (enabled and no-op paths)."""

import pickle

from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.telemetry import new_run_id


class TestDisabledFacade:
    def test_singleton(self):
        from repro.obs import telemetry as module

        assert module.NULL_TELEMETRY is NULL_TELEMETRY
        assert NULL_TELEMETRY.enabled is False

    def test_allocates_nothing(self):
        assert NULL_TELEMETRY.registry is None
        assert NULL_TELEMETRY.samplers is None
        assert NULL_TELEMETRY.tracer is None

    def test_recording_is_noop(self):
        # None of these may touch the (absent) backing stores.
        NULL_TELEMETRY.inc("c")
        NULL_TELEMETRY.set_gauge("g", 1.0)
        NULL_TELEMETRY.observe("h", 1.0)
        NULL_TELEMETRY.record_sample("s", 0.0, 1.0)
        NULL_TELEMETRY.maybe_sample(0.0)
        NULL_TELEMETRY.sample_now(0.0)


class TestEnabledFacade:
    def test_create_arms_everything(self):
        tel = Telemetry.create(run_id="r1")
        assert tel.enabled
        assert tel.run_id == "r1"
        tel.inc("c", 2.0)
        tel.set_gauge("g", 3.0)
        tel.observe("h", 4.0)
        tel.record_sample("s", 0.0, 1.0)
        assert tel.registry.counter_value("c") == 2.0
        assert tel.registry.gauge_value("g") == 3.0
        assert tel.registry.histogram("h").count == 1
        assert tel.samplers.get_series("s").values == [1.0]

    def test_generated_run_ids_are_unique(self):
        assert new_run_id() != new_run_id()
        tel = Telemetry.create()
        assert tel.run_id

    def test_sampler_hooks_delegate(self):
        tel = Telemetry.create(run_id="r", sample_period_ms=100.0)
        tel.samplers.add_probe("depth", lambda: 5.0)
        tel.maybe_sample(0.0)
        tel.maybe_sample(10.0)  # within period: skipped
        tel.sample_now(20.0)  # forced
        assert len(tel.samplers.get_series("depth")) == 2

    def test_registry_snapshot_pickles(self):
        # Snapshots are plain data, safe to ship between processes.
        tel = Telemetry.create(run_id="r")
        tel.inc("c", kind="a")
        snapshot = tel.registry.to_dict()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot
