"""Tests for the metrics registry (counters, gauges, histograms)."""

import pytest

from repro.obs.registry import (
    DEFAULT_BUCKETS_MS,
    Histogram,
    MetricsRegistry,
    metric_key,
)


class TestMetricKey:
    def test_no_labels(self):
        assert metric_key("hits", None) == ("hits", ())
        assert metric_key("hits", {}) == ("hits", ())

    def test_labels_sorted(self):
        key = metric_key("hits", {"b": "2", "a": "1"})
        assert key == ("hits", (("a", "1"), ("b", "2")))

    def test_label_values_stringified(self):
        assert metric_key("hits", {"n": 3}) == ("hits", (("n", "3"),))


class TestCounters:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        registry.inc("jobs_total")
        registry.inc("jobs_total", 2.0)
        assert registry.counter_value("jobs_total") == 3.0

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        registry.inc("jobs_total", kind="a")
        registry.inc("jobs_total", 5.0, kind="b")
        assert registry.counter_value("jobs_total", kind="a") == 1.0
        assert registry.counter_value("jobs_total", kind="b") == 5.0
        assert registry.counter_value("jobs_total") == 0.0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().inc("jobs_total", -1.0)

    def test_missing_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("ghost") == 0.0


class TestGauges:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("queue_depth", 4.0)
        registry.set_gauge("queue_depth", 2.0)
        assert registry.gauge_value("queue_depth") == 2.0

    def test_missing_gauge_is_none(self):
        assert MetricsRegistry().gauge_value("ghost") is None


class TestHistogram:
    def test_observe_fills_buckets(self):
        histogram = Histogram(buckets=(10.0, 100.0))
        histogram.observe(5.0)
        histogram.observe(50.0)
        histogram.observe(500.0)
        assert histogram.counts == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(555.0)

    def test_boundary_lands_in_lower_bucket(self):
        histogram = Histogram(buckets=(10.0, 100.0))
        histogram.observe(10.0)
        assert histogram.counts == [1, 0, 0]

    def test_percentiles(self):
        histogram = Histogram(buckets=(10.0, 100.0, 1000.0))
        for value in (1.0, 2.0, 3.0, 50.0):
            histogram.observe(value)
        assert histogram.percentile(50.0) == 10.0
        assert histogram.percentile(100.0) == 100.0
        assert histogram.percentile(0.0) == 10.0

    def test_percentile_empty_is_zero(self):
        assert Histogram(buckets=(1.0,)).percentile(99.0) == 0.0

    def test_percentile_bounds_checked(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0,)).percentile(101.0)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(10.0, 5.0))

    def test_registry_observe_uses_default_buckets(self):
        registry = MetricsRegistry()
        registry.observe("latency_ms", 42.0)
        histogram = registry.histogram("latency_ms")
        assert histogram is not None
        assert histogram.buckets == DEFAULT_BUCKETS_MS

    def test_declared_buckets_apply_and_conflict_raises(self):
        registry = MetricsRegistry()
        registry.declare_histogram("latency_ms", (1.0, 2.0))
        registry.observe("latency_ms", 1.5)
        assert registry.histogram("latency_ms").buckets == (1.0, 2.0)
        with pytest.raises(ValueError):
            registry.declare_histogram("latency_ms", (5.0,))


class TestMergeAndSerialise:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.inc("jobs_total", 3.0, kind="a")
        registry.set_gauge("queue_depth", 7.0)
        registry.observe("latency_ms", 12.0)
        return registry

    def test_to_dict_roundtrip(self):
        registry = self.make_registry()
        snapshot = registry.to_dict()
        clone = MetricsRegistry.from_dict(snapshot)
        assert clone.to_dict() == snapshot
        assert clone.counter_value("jobs_total", kind="a") == 3.0
        assert clone.histogram("latency_ms").count == 1

    def test_to_dict_is_deterministic(self):
        a = self.make_registry().to_dict()
        b = self.make_registry().to_dict()
        assert a == b

    def test_len_counts_every_series(self):
        assert len(self.make_registry()) == 3


class TestPrometheusRendering:
    def test_counter_gauge_histogram_lines(self):
        registry = MetricsRegistry()
        registry.inc("jobs_total", 3.0, kind="a")
        registry.set_gauge("queue_depth", 7.0)
        registry.declare_histogram("latency_ms", (10.0, 100.0))
        registry.observe("latency_ms", 5.0)
        registry.observe("latency_ms", 50.0)
        text = registry.render_prometheus()
        assert "# TYPE jobs_total counter" in text
        assert 'jobs_total{kind="a"} 3' in text
        assert "# TYPE queue_depth gauge" in text
        assert "queue_depth 7" in text
        assert 'latency_ms_bucket{le="10"} 1' in text
        assert 'latency_ms_bucket{le="100"} 2' in text
        assert 'latency_ms_bucket{le="+Inf"} 2' in text
        assert "latency_ms_sum 55" in text
        assert "latency_ms_count 2" in text
        assert text.endswith("\n")

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_invalid_metric_name_rejected(self):
        registry = MetricsRegistry()
        registry.inc("bad name")
        with pytest.raises(ValueError):
            registry.render_prometheus()
