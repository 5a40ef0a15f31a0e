"""Instrumentation for the verification engine.

The exhaustive explorer (:mod:`repro.checks.explore`) and the adversarial
fuzzer (:mod:`repro.bounds.search`) are the hot paths behind every safety
claim this library makes. This package gives them a shared, lightweight
observability layer: each campaign reports a
:class:`~repro.verify.metrics.VerificationMetrics` describing its
throughput (states or schedules per second), deduplication effectiveness,
frontier shape, per-worker breakdown, and peak memory — so a performance
regression in the verification engine shows up in benchmark trajectories
instead of silently doubling CI time. :func:`~repro.verify.runner.run_shards`
is the one fork runner both engines split their campaigns over.
"""

from .metrics import (
    MetricsRecorder,
    VerificationMetrics,
    WorkerMetrics,
    peak_rss_kb,
)
from .runner import run_shards

__all__ = [
    "MetricsRecorder",
    "VerificationMetrics",
    "WorkerMetrics",
    "peak_rss_kb",
    "run_shards",
]
