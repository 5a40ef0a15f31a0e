"""Tests for the verification-campaign metrics layer."""

import time

from repro.verify import (
    MetricsRecorder,
    VerificationMetrics,
    WorkerMetrics,
    peak_rss_kb,
)


class TestVerificationMetrics:
    def test_units_per_sec(self):
        metrics = VerificationMetrics(kind="fuzz", units=150, wall_seconds=0.5)
        assert metrics.units_per_sec == 300.0

    def test_units_per_sec_zero_wall(self):
        metrics = VerificationMetrics(kind="fuzz", units=150, wall_seconds=0.0)
        assert metrics.units_per_sec == 0.0

    def test_dedup_hit_rate(self):
        metrics = VerificationMetrics(
            kind="explore",
            units=10,
            wall_seconds=1.0,
            dedup_checks=200,
            dedup_hits=50,
        )
        assert metrics.dedup_hit_rate == 0.25

    def test_dedup_hit_rate_no_checks(self):
        metrics = VerificationMetrics(kind="fuzz", units=10, wall_seconds=1.0)
        assert metrics.dedup_hit_rate == 0.0

    def test_describe_explorer(self):
        metrics = VerificationMetrics(
            kind="explore",
            units=1412,
            wall_seconds=0.1,
            dedup_checks=4000,
            dedup_hits=1000,
            max_frontier=37,
            max_depth=12,
        )
        text = metrics.describe()
        assert "1412 states" in text
        assert "dedup hit-rate 25.0%" in text
        assert "frontier peak 37" in text
        assert "depth 12" in text

    def test_describe_sharded_fuzzer(self):
        metrics = VerificationMetrics(
            kind="fuzz",
            units=100,
            wall_seconds=1.0,
            workers=2,
            per_worker=[
                WorkerMetrics(worker=0, units=50, seconds=0.5),
                WorkerMetrics(worker=1, units=50, seconds=0.25),
            ],
        )
        text = metrics.describe()
        assert "100 schedules" in text
        assert "2 workers" in text
        assert "w0: 100/s" in text
        assert "w1: 200/s" in text


class TestWorkerMetrics:
    def test_units_per_sec(self):
        share = WorkerMetrics(worker=3, units=40, seconds=2.0)
        assert share.units_per_sec == 20.0
        assert WorkerMetrics(worker=0, units=5, seconds=0.0).units_per_sec == 0.0


class TestPeakRss:
    def test_nonnegative(self):
        # On this (POSIX) platform the counter is live and in KiB.
        assert peak_rss_kb() >= 0

    def test_darwin_normalizes_bytes_to_kib(self, monkeypatch):
        """macOS reports ``ru_maxrss`` in bytes; the helper returns KiB."""
        from repro.verify import metrics as metrics_module

        class _Usage:
            ru_maxrss = 300 * 1024  # 300 KiB expressed in bytes

        class _Resource:
            RUSAGE_SELF = 0

            @staticmethod
            def getrusage(_who):
                return _Usage()

        monkeypatch.setattr(metrics_module, "_resource", _Resource)
        monkeypatch.setattr(metrics_module.sys, "platform", "darwin")
        assert peak_rss_kb() == 300

    def test_linux_passes_kib_through(self, monkeypatch):
        from repro.verify import metrics as metrics_module

        class _Usage:
            ru_maxrss = 4096  # already KiB on Linux

        class _Resource:
            RUSAGE_SELF = 0

            @staticmethod
            def getrusage(_who):
                return _Usage()

        monkeypatch.setattr(metrics_module, "_resource", _Resource)
        monkeypatch.setattr(metrics_module.sys, "platform", "linux")
        assert peak_rss_kb() == 4096


class TestMetricsRecorder:
    def test_finish_carries_counters(self):
        recorder = MetricsRecorder("explore")
        recorder.units = 7
        recorder.dedup_checks = 20
        recorder.dedup_hits = 5
        recorder.note_frontier(3)
        recorder.note_frontier(9)
        recorder.note_frontier(4)  # not a new high-water mark
        recorder.note_depth(6)
        time.sleep(0.01)
        metrics = recorder.finish()
        assert metrics.kind == "explore"
        assert metrics.units == 7
        assert metrics.dedup_checks == 20 and metrics.dedup_hits == 5
        assert metrics.max_frontier == 9
        assert metrics.max_depth == 6
        assert metrics.wall_seconds > 0
        assert metrics.workers == 1 and metrics.per_worker == []

    def test_finish_with_worker_shares(self):
        recorder = MetricsRecorder("fuzz")
        recorder.units = 12
        shares = [
            WorkerMetrics(worker=0, units=6, seconds=0.1),
            WorkerMetrics(worker=1, units=6, seconds=0.2),
        ]
        metrics = recorder.finish(workers=2, per_worker=shares, wall_seconds=0.25)
        assert metrics.workers == 2
        assert metrics.per_worker == shares
        assert metrics.wall_seconds == 0.25

    def test_merge_folds_shards_in_index_order(self):
        shards = [
            VerificationMetrics(
                kind="explore", units=4, wall_seconds=0.5, dedup_checks=10,
                dedup_hits=4, max_frontier=3, max_depth=7,
            ),
            VerificationMetrics(
                kind="explore", units=6, wall_seconds=0.25, dedup_checks=5,
                dedup_hits=1, max_frontier=8, max_depth=2,
            ),
        ]
        recorder = MetricsRecorder("explore")
        recorder.units = 9  # the caller's count: shards may overlap
        metrics = recorder.merge(shards)
        assert metrics.units == 9 and metrics.workers == 2
        assert (metrics.dedup_checks, metrics.dedup_hits) == (15, 5)
        assert (metrics.max_frontier, metrics.max_depth) == (8, 7)
        assert metrics.per_worker == [
            WorkerMetrics(worker=0, units=4, seconds=0.5),
            WorkerMetrics(worker=1, units=6, seconds=0.25),
        ]
