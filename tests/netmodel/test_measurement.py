"""Tests for iperf-like bandwidth measurement."""

import pytest

from repro.core.model import NetworkTechnology
from repro.netmodel.links import WirelessLink
from repro.netmodel.measurement import (
    BandwidthMeasurement,
    measure_fleet,
    measure_link,
)


class TestMeasureLink:
    def test_statistics_are_consistent(self):
        link = WirelessLink.for_technology(NetworkTechnology.WIFI_G, seed=1)
        measurement = measure_link(link, duration_s=120.0)
        assert measurement.min_kbps <= measurement.mean_kbps <= measurement.max_kbps
        assert measurement.std_kbps >= 0
        assert len(measurement.samples) == 120

    def test_b_is_inverse_of_mean(self):
        link = WirelessLink.for_technology(NetworkTechnology.FOUR_G, seed=2)
        measurement = measure_link(link, duration_s=60.0)
        assert measurement.b_ms_per_kb == pytest.approx(
            1000.0 / measurement.mean_kbps
        )

    def test_wifi_cv_is_small(self):
        link = WirelessLink.for_technology(NetworkTechnology.WIFI_A, seed=3)
        measurement = measure_link(link, duration_s=600.0)
        assert measurement.coefficient_of_variation < 0.1

    def test_cellular_cv_is_larger_than_wifi(self):
        wifi = measure_link(
            WirelessLink.for_technology(NetworkTechnology.WIFI_A, seed=4),
            duration_s=600.0,
        )
        cellular = measure_link(
            WirelessLink.for_technology(NetworkTechnology.THREE_G, seed=4),
            duration_s=600.0,
        )
        assert cellular.coefficient_of_variation > wifi.coefficient_of_variation

    def test_single_sample_measurement(self):
        link = WirelessLink.for_technology(NetworkTechnology.WIFI_G, seed=5)
        measurement = measure_link(link, duration_s=1.0, interval_s=1.0)
        assert len(measurement.samples) == 1
        assert measurement.std_kbps == 0.0


class TestMeasureFleet:
    def test_returns_b_per_phone(self):
        links = {
            "fast": WirelessLink.for_technology(NetworkTechnology.FOUR_G, seed=6),
            "slow": WirelessLink.for_technology(NetworkTechnology.EDGE, seed=7),
        }
        b = measure_fleet(links)
        assert set(b) == {"fast", "slow"}
        assert b["fast"] < b["slow"]

    def test_empty_fleet(self):
        assert measure_fleet({}) == {}

    def test_b_values_positive(self):
        links = {
            f"p{i}": WirelessLink.for_technology(NetworkTechnology.WIFI_G, seed=i)
            for i in range(5)
        }
        assert all(value > 0 for value in measure_fleet(links).values())

    def test_b_equals_measure_link_exactly(self):
        # measure_fleet skips the spread but must keep every b_i bit for
        # bit: campaign digests are built from these values.
        for tech in NetworkTechnology:
            for seed in range(3):
                fleet = measure_fleet(
                    {"p": WirelessLink.for_technology(tech, seed=seed)},
                    duration_s=45.0,
                )
                single = measure_link(
                    WirelessLink.for_technology(tech, seed=seed),
                    duration_s=45.0,
                )
                assert fleet["p"] == single.b_ms_per_kb
