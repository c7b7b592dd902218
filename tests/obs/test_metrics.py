"""Tests for the metrics registry and its exports."""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import MetricsRegistry


class TestCounter:
    def test_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("packets_generated_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        counter = MetricsRegistry().counter("x_total")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_labelled_families_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("fault_events_total", labels={"kind": "ack_lost"}).inc(2)
        registry.counter("fault_events_total", labels={"kind": "brownout"}).inc(1)
        flat = registry.flat()
        assert flat['repro_fault_events_total{kind="ack_lost"}'] == 2
        assert flat['repro_fault_events_total{kind="brownout"}'] == 1


class TestGauge:
    def test_set_inc_dec_max(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(3.0)
        gauge.inc()
        gauge.inc(-2.0)
        assert gauge.value == 2.0
        gauge.max(10.0)
        gauge.max(5.0)
        assert gauge.value == 10.0


class TestHistogram:
    def test_cumulative_buckets(self):
        histogram = MetricsRegistry().histogram("lat", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 0.7, 3.0, 20.0):
            histogram.observe(value)
        assert histogram.bucket_weights() == [2.0, 3.0, 3.0]
        assert histogram.count == 4.0
        assert histogram.sum == pytest.approx(24.2)

    def test_weighted_observation(self):
        histogram = MetricsRegistry().histogram("soc", buckets=(0.4, 1.0))
        histogram.observe(0.3, weight=100.0)  # 100 simulated seconds below 0.4
        histogram.observe(0.9, weight=10.0)
        assert histogram.bucket_weights() == [100.0, 110.0]
        assert histogram.count == 110.0

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().histogram("bad", buckets=(5.0, 1.0))

    def test_rejects_negative_weight(self):
        histogram = MetricsRegistry().histogram("h")
        with pytest.raises(ConfigurationError):
            histogram.observe(1.0, weight=-1.0)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ConfigurationError):
            registry.gauge("thing")

    def test_namespace_prefix_is_idempotent(self):
        registry = MetricsRegistry(namespace="repro")
        metric = registry.counter("repro_x_total")
        assert metric.name == "repro_x_total"
        assert registry.get("x_total") is metric

    def test_rejects_bad_names(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("bad name!")

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("packets_total", "Packets seen").inc(3)
        registry.gauge("avg_prr").set(0.95)
        registry.histogram("prr", buckets=(0.5, 1.0)).observe(0.8)
        text = registry.to_prometheus()
        assert "# HELP repro_packets_total Packets seen" in text
        assert "# TYPE repro_packets_total counter" in text
        assert "repro_packets_total 3" in text
        assert "repro_avg_prr 0.95" in text
        assert 'repro_prr_bucket{le="1"} 1' in text
        assert 'repro_prr_bucket{le="+Inf"} 1' in text
        assert "repro_prr_count 1" in text

    def test_json_export_parses(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        document = json.loads(registry.to_json_text())
        assert document["namespace"] == "repro"
        kinds = {entry["name"]: entry["kind"] for entry in document["metrics"]}
        assert kinds == {"repro_a_total": "counter", "repro_h": "histogram"}
