"""Tests for the columnar time series and the sampler set."""

import pytest

from repro.obs.samplers import SamplerSet, Series


class TestSeries:
    def test_append_and_len(self):
        series = Series(name="util")
        series.append(0.0, 0.5)
        series.append(10.0, 0.7)
        assert len(series) == 2
        assert series.last_value() == 0.7

    def test_time_must_not_decrease(self):
        series = Series(name="util")
        series.append(10.0, 1.0)
        with pytest.raises(ValueError):
            series.append(9.0, 1.0)

    def test_key_includes_sorted_labels(self):
        series = Series(name="busy", labels={"id": "p0", "a": "1"})
        assert series.key() == "busy{a=1,id=p0}"
        assert Series(name="busy").key() == "busy"

    def test_dict_roundtrip(self):
        series = Series(name="util", labels={"id": "p0"})
        series.append(0.0, 0.25)
        clone = Series.from_dict(series.to_dict())
        assert clone.key() == series.key()
        assert clone.times_ms == series.times_ms
        assert clone.values == series.values

    def test_from_dict_accepts_legacy_dropped_count(self):
        legacy = {
            "name": "util",
            "labels": {"id": "p0"},
            "times_ms": [7.0, 8.0],
            "values": [0.5, 0.75],
            "dropped": 7,
        }
        series = Series.from_dict(legacy)
        assert series.times_ms == [7.0, 8.0]
        assert series.values == [0.5, 0.75]
        assert "dropped" not in series.to_dict()

    def test_csv_roundtrip(self, tmp_path):
        series = Series(name="util")
        series.append(0.0, 0.25)
        series.append(5000.0, 0.75)
        path = tmp_path / "util.csv"
        series.write_csv(path)
        clone = Series.read_csv(path, name="util")
        assert clone.times_ms == series.times_ms
        assert clone.values == series.values

    def test_read_csv_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            Series.read_csv(path, name="x")


class TestSamplerSet:
    def test_probe_sampled_once_per_period(self):
        values = iter(range(100))
        sampler = SamplerSet(period_ms=1000.0)
        sampler.add_probe("depth", lambda: float(next(values)))
        assert sampler.maybe_sample(0.0) is True
        assert sampler.maybe_sample(500.0) is False  # within period
        assert sampler.maybe_sample(1000.0) is True
        series = sampler.get_series("depth")
        assert series.times_ms == [0.0, 1000.0]
        assert series.values == [0.0, 1.0]

    def test_sample_now_forces_row(self):
        sampler = SamplerSet(period_ms=1000.0)
        sampler.add_probe("depth", lambda: 1.0)
        sampler.maybe_sample(0.0)
        sampler.sample_now(10.0)  # well within the period
        assert len(sampler.get_series("depth")) == 2

    def test_clock_cannot_go_backwards(self):
        sampler = SamplerSet(period_ms=10.0)
        sampler.add_probe("depth", lambda: 1.0)
        sampler.sample_now(100.0)
        with pytest.raises(ValueError):
            sampler.sample_now(99.0)

    def test_multi_probe_splits_series_per_label(self):
        sampler = SamplerSet(period_ms=10.0)
        sampler.add_multi_probe(
            "busy", lambda: {"p0": 1.0, "p1": 0.0}
        )
        sampler.sample_now(0.0)
        assert sampler.get_series("busy", id="p0").values == [1.0]
        assert sampler.get_series("busy", id="p1").values == [0.0]

    def test_series_sorted_by_key(self):
        sampler = SamplerSet()
        sampler.add_probe("zeta", lambda: 0.0)
        sampler.add_probe("alpha", lambda: 0.0)
        sampler.sample_now(0.0)
        assert [s.key() for s in sampler.series] == ["alpha", "zeta"]

    def test_direct_record_bypasses_probes(self):
        sampler = SamplerSet()
        sampler.record("battery", 0.0, 10.0, policy="mimd")
        sampler.record("battery", 60_000.0, 25.0, policy="mimd")
        series = sampler.get_series("battery", policy="mimd")
        assert series.values == [10.0, 25.0]

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            SamplerSet(period_ms=0.0)

    def test_series_stay_unbounded(self):
        # Neither the sampler set nor the telemetry facade caps a series.
        from repro.obs import Telemetry

        tel = Telemetry.create("run")
        for i in range(1_000):
            tel.record_sample("s", float(i), 1.0)
        assert len(tel.samplers.get_series("s")) == 1_000
