"""Tests for adaptive bandwidth re-measurement scheduling."""

import pytest

from repro.core.model import NetworkTechnology
from repro.netmodel.links import WirelessLink
from repro.netmodel.measurement import measure_link
from repro.netmodel.scheduler import MeasurementScheduler
from repro.workloads.mixes import paper_testbed


def measured(technology, seed=1, duration_s=120.0):
    link = WirelessLink.for_technology(technology, seed=seed)
    return measure_link(link, duration_s=duration_s)


class TestIntervals:
    def make(self):
        return MeasurementScheduler(
            min_interval_ms=60_000.0, max_interval_ms=3_600_000.0, cv_scale=0.15
        )

    def test_unmeasured_link_due_immediately(self):
        scheduler = self.make()
        assert scheduler.is_due("p", now_ms=0.0)
        assert scheduler.interval_ms("p") == 0.0

    def test_stable_link_gets_long_interval(self):
        scheduler = self.make()
        scheduler.record("wifi", measured(NetworkTechnology.WIFI_A), 0.0)
        assert scheduler.interval_ms("wifi") > 2_000_000.0

    def test_jittery_link_gets_short_interval(self):
        scheduler = self.make()
        scheduler.record("edge", measured(NetworkTechnology.EDGE), 0.0)
        scheduler.record("wifi", measured(NetworkTechnology.WIFI_A), 0.0)
        assert scheduler.interval_ms("edge") < scheduler.interval_ms("wifi")

    def test_due_follows_interval(self):
        scheduler = self.make()
        scheduler.record("wifi", measured(NetworkTechnology.WIFI_A), 0.0)
        interval = scheduler.interval_ms("wifi")
        assert not scheduler.is_due("wifi", now_ms=interval / 2)
        assert scheduler.is_due("wifi", now_ms=interval + 1)

    def test_cv_above_scale_clamps_to_min_interval(self):
        scheduler = MeasurementScheduler(
            min_interval_ms=100.0, max_interval_ms=1000.0, cv_scale=0.01
        )
        scheduler.record("cell", measured(NetworkTechnology.THREE_G), 0.0)
        assert scheduler.interval_ms("cell") == pytest.approx(100.0)

    def test_state_lookup(self):
        scheduler = self.make()
        scheduler.record("p", measured(NetworkTechnology.WIFI_G), 5.0)
        state = scheduler.state("p")
        assert state.measurements == 1
        assert state.last_measured_ms == 5.0
        with pytest.raises(KeyError):
            scheduler.state("ghost")

    def test_validation(self):
        with pytest.raises(ValueError):
            MeasurementScheduler(min_interval_ms=0.0)
        with pytest.raises(ValueError):
            MeasurementScheduler(min_interval_ms=100.0, max_interval_ms=50.0)
        with pytest.raises(ValueError):
            MeasurementScheduler(cv_scale=0.0)
        with pytest.raises(ValueError):
            MeasurementScheduler(ewma=0.0)


class TestMeasureDue:
    def test_first_call_measures_everything(self):
        scheduler = MeasurementScheduler()
        links = {
            "a": WirelessLink.for_technology(NetworkTechnology.WIFI_A, seed=1),
            "b": WirelessLink.for_technology(NetworkTechnology.EDGE, seed=2),
        }
        b = scheduler.measure_due(links, now_ms=0.0)
        assert set(b) == {"a", "b"}
        assert all(value > 0 for value in b.values())

    def test_second_call_uses_cache_when_not_due(self):
        scheduler = MeasurementScheduler(min_interval_ms=1e6, max_interval_ms=1e9)
        links = {
            "a": WirelessLink.for_technology(NetworkTechnology.WIFI_A, seed=1),
        }
        first = scheduler.measure_due(links, now_ms=0.0)
        second = scheduler.measure_due(links, now_ms=10.0)
        assert first == second
        assert scheduler.state("a").measurements == 1

    def test_remeasures_when_due(self):
        scheduler = MeasurementScheduler(
            min_interval_ms=10.0, max_interval_ms=20.0
        )
        links = {
            "a": WirelessLink.for_technology(NetworkTechnology.THREE_G, seed=3),
        }
        scheduler.measure_due(links, now_ms=0.0)
        scheduler.measure_due(links, now_ms=1e6)
        assert scheduler.state("a").measurements == 2

    def test_stable_links_are_not_remeasured_nightly(self):
        testbed = paper_testbed()
        scheduler = MeasurementScheduler(
            min_interval_ms=3_600_000.0,
            max_interval_ms=7 * 24 * 3_600_000.0,
        )
        for night in range(3):
            scheduler.measure_due(testbed.links, night * 24 * 3_600_000.0)
        # The stable WiFi phones were measured once, not three times.
        wifi_phone = next(
            p for p in testbed.phones if testbed.links[p.phone_id].is_wifi
        )
        assert scheduler.state(wifi_phone.phone_id).measurements < 3
