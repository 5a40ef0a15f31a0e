"""Unit tests for the metrics registry: bucketing edges and merging.

The histogram semantics this file pins — inclusive upper edges, one
overflow bucket, merge-only-with-identical-bounds — are what make
per-node snapshots mergeable into the cluster view that ``repro stats``
and ``Simulation.stats()`` both report.
"""

import json

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Observability,
    default_latency_bounds,
    fast_path_ratio,
    merge_snapshots,
    message_label,
)


class TestHistogramBucketing:
    def test_empty_histogram(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        assert histogram.count == 0
        assert histogram.sum == 0.0
        assert histogram.mean is None
        assert histogram.min is None and histogram.max is None
        assert histogram.percentile(0.5) is None
        assert histogram.counts == [0, 0, 0]

    def test_single_sample(self):
        histogram = Histogram(bounds=(1.0, 2.0, 4.0))
        histogram.observe(1.5)
        assert histogram.count == 1
        assert histogram.counts == [0, 1, 0, 0]
        assert histogram.mean == 1.5
        assert histogram.min == histogram.max == 1.5
        # Bucket-edge estimates are clamped to the observed max, so a
        # lone sample reports its exact value (q=1.0 is always the max).
        assert histogram.percentile(0.5) == 1.5
        assert histogram.percentile(1.0) == 1.5

    def test_interior_percentile_reports_edge_when_max_is_beyond(self):
        histogram = Histogram(bounds=(1.0, 2.0, 4.0))
        histogram.observe(1.5)
        histogram.observe(1.6)
        histogram.observe(3.5)  # max lives beyond the p50 bucket
        assert histogram.percentile(0.5) == 2.0  # edge, not clamped
        assert histogram.percentile(1.0) == 3.5  # exact

    def test_upper_edges_are_inclusive(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        histogram.observe(1.0)  # lands in bucket 0: v <= 1.0
        histogram.observe(2.0)  # lands in bucket 1: 1.0 < v <= 2.0
        histogram.observe(2.0001)  # overflow bucket
        assert histogram.counts == [1, 1, 1]

    def test_overflow_bucket_reports_exact_max(self):
        histogram = Histogram(bounds=(1.0,))
        histogram.observe(9.75)
        assert histogram.counts == [0, 1]
        assert histogram.percentile(1.0) == 9.75

    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))

    def test_percentile_rejects_bad_quantile(self):
        histogram = Histogram(bounds=(1.0,))
        with pytest.raises(ValueError):
            histogram.percentile(0.0)
        with pytest.raises(ValueError):
            histogram.percentile(1.5)

    def test_default_bounds_cover_sub_ms_to_tens_of_seconds(self):
        bounds = default_latency_bounds()
        assert bounds[0] == pytest.approx(0.0001)
        assert bounds[-1] > 50.0
        assert list(bounds) == sorted(bounds)


class TestHistogramMerge:
    def test_merge_across_nodes(self):
        a = Histogram(bounds=(1.0, 2.0))
        b = Histogram(bounds=(1.0, 2.0))
        a.observe(0.5)
        a.observe(1.5)
        b.observe(3.0)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.sum == pytest.approx(5.0)
        assert a.min == 0.5 and a.max == 3.0

    def test_merge_with_empty_keeps_sidecars(self):
        a = Histogram(bounds=(1.0,))
        a.observe(0.25)
        a.merge(Histogram(bounds=(1.0,)))
        assert a.count == 1 and a.min == a.max == 0.25
        empty = Histogram(bounds=(1.0,))
        empty.merge(a)
        assert empty.count == 1 and empty.min == empty.max == 0.25

    def test_merge_rejects_mismatched_bounds(self):
        a = Histogram(bounds=(1.0, 2.0))
        b = Histogram(bounds=(1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_roundtrip_through_dict(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(5.0)
        payload = json.loads(json.dumps(histogram.to_dict()))
        restored = Histogram.from_dict(payload)
        assert restored.to_dict() == histogram.to_dict()
        assert restored.percentile(1.0) == 5.0

    def test_from_dict_rejects_inconsistent_counts(self):
        payload = Histogram(bounds=(1.0, 2.0)).to_dict()
        payload["counts"] = [0]
        with pytest.raises(ValueError):
            Histogram.from_dict(payload)


class TestRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("sent.TwoA")
        registry.inc("sent.TwoA", delta=4)
        registry.gauge_max("outbox", 3)
        registry.gauge_max("outbox", 1)  # not a new high-water mark
        registry.observe("latency", 0.01)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"sent.TwoA": 5}
        assert snapshot["gauges"] == {"outbox": 3}
        assert snapshot["histograms"]["latency"]["count"] == 1
        assert registry.counter_value("sent.TwoA") == 5
        assert registry.counter_value("never-written") == 0

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.gauge_max("b", 2.5)
        registry.observe("c", 0.1)
        json.dumps(registry.snapshot())  # must not raise

    def test_null_registry_writes_nothing(self):
        registry = NullRegistry()
        registry.inc("a")
        registry.observe("b", 1.0)
        registry.gauge_max("c", 9)
        snapshot = registry.snapshot()
        assert snapshot == {"counters": {}, "gauges": {}, "histograms": {}}


class TestMergeSnapshots:
    def test_counters_add_gauges_max_histograms_merge(self):
        r0, r1 = MetricsRegistry(), MetricsRegistry()
        r0.inc("sent.TwoB", 3)
        r1.inc("sent.TwoB", 4)
        r1.inc("recv.Decide", 1)
        r0.gauge_max("hwm", 2)
        r1.gauge_max("hwm", 7)
        r0.observe("lat", 0.5)
        r1.observe("lat", 1.5)
        merged = merge_snapshots([r0.snapshot(), r1.snapshot()])
        assert merged["counters"] == {"recv.Decide": 1, "sent.TwoB": 7}
        assert merged["gauges"] == {"hwm": 7}
        assert merged["histograms"]["lat"]["count"] == 2
        assert merged["histograms"]["lat"]["min"] == 0.5
        assert merged["histograms"]["lat"]["max"] == 1.5

    def test_none_entries_skipped(self):
        r = MetricsRegistry()
        r.inc("x")
        merged = merge_snapshots([None, r.snapshot(), None])
        assert merged["counters"] == {"x": 1}

    def test_merge_of_nothing_is_empty(self):
        merged = merge_snapshots([])
        assert merged == {"counters": {}, "gauges": {}, "histograms": {}}


class TestFastPathRatio:
    def test_ratio_from_counters(self):
        registry = MetricsRegistry()
        registry.inc("consensus.decisions_fast", 3)
        registry.inc("consensus.decisions_slow", 1)
        registry.inc("consensus.decisions_learned", 10)  # excluded
        assert fast_path_ratio(registry.snapshot()) == 0.75

    def test_no_quorum_decisions_is_none(self):
        registry = MetricsRegistry()
        registry.inc("consensus.decisions_learned", 5)
        assert fast_path_ratio(registry.snapshot()) is None
        assert fast_path_ratio({"counters": {}}) is None


class TestMessageLabel:
    def test_plain_and_envelope_labels(self):
        class Ping:
            pass

        class Wrapped:
            def __init__(self, inner):
                self.inner = inner

        assert message_label(Ping()) == "Ping"
        assert message_label(Wrapped(Ping())) == "Wrapped.Ping"
        # Cached path returns the same label.
        assert message_label(Wrapped(Ping())) == "Wrapped.Ping"


class TestObservability:
    def test_default_is_live_registry_null_trace(self):
        obs = Observability(node=3)
        obs.registry.inc("x")
        snapshot = obs.snapshot()
        assert snapshot["counters"] == {"x": 1}
        assert "span_events" not in snapshot  # spans stay off by default

    def test_disabled_writes_nothing(self):
        obs = Observability.disabled(node=1)
        obs.registry.inc("x")
        assert obs.snapshot()["counters"] == {}
