"""repro.obs — cluster-wide observability for both runtimes.

The paper's whole point is *which decisions complete in two message
delays*; this package makes that measurable. It has four parts:

* :mod:`~repro.obs.registry` — a low-overhead per-node metrics registry
  (counters, high-water gauges, fixed-bucket mergeable histograms) that
  stays **on by default**;
* :mod:`~repro.obs.decisions` — per-slot decision records tagged
  ``fast | slow | learned`` and their cluster-wide merge, yielding the
  **fast-path ratio** that empirically checks Theorems 5/6 — the one
  per-decision record;
* :mod:`~repro.obs.spans` — **opt-in** causal per-command spans sampled
  at batch seal and carried across the wire, merged into per-command
  critical paths that split fast-path from recovery-path latency;
* :mod:`~repro.obs.export` — Prometheus text exposition and JSONL
  time-series rows rendered from any snapshot.

Both runtimes are instrumented through the one seam they share: the
:class:`repro.core.process.Context` handed to every activation exposes
an :class:`Observability` via ``ctx.obs``. The discrete-event simulator
and the live TCP node each bind a real registry there; every other
harness (arena, rounds-as-arena, explorer worlds) inherits the no-op
:data:`NULL_OBS`, so state-space exploration pays nothing.

Metric names are identical in both runtimes — a simulated run and a
live run of the same seeded workload produce directly comparable
snapshots (``tests/net/test_stats.py`` pins that). The full metric
catalogue and span schema live in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .decisions import (
    PATH_FAST,
    PATH_LEARNED,
    PATH_SLOW,
    decision_record,
    merge_decision_records,
    slot_paths,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    default_latency_bounds,
    fast_path_ratio,
    merge_snapshots,
)
from .export import prometheus_text, timeseries_row
from .spans import (
    DEFAULT_SPAN_CAPACITY,
    NULL_SPANS,
    NullSpans,
    SpanRecorder,
    critical_path,
    critical_paths,
    merge_span_events,
    stage_breakdown,
)

#: Cache of per-message-type counter suffixes, keyed by the concrete
#: (outer, inner) types so envelope messages such as ``Slotted`` report
#: their payload type too: ``Slotted.Propose``, ``Slotted.TwoB``, ...
_LABEL_CACHE: Dict[Any, str] = {}


def message_label(message: Any) -> str:
    """Stable counter suffix for a message: ``TwoB``, ``Slotted.TwoB`` ...

    Envelope detection is duck-typed on an ``inner`` attribute so this
    module depends on nothing protocol-specific: any message carrying
    another message as ``inner`` is labeled ``Outer.Inner``.
    """
    cls = type(message)
    inner = getattr(message, "inner", None)
    key = (cls, type(inner)) if inner is not None else cls
    label = _LABEL_CACHE.get(key)
    if label is None:
        label = (
            f"{cls.__name__}.{type(inner).__name__}"
            if inner is not None
            else cls.__name__
        )
        _LABEL_CACHE[key] = label
    return label


class Observability:
    """One node's metrics registry plus its (optional) span recorder.

    Handed out through ``ctx.obs``; the bundle is deliberately tiny so the
    hot paths touch at most two attribute lookups before a counter add.
    """

    __slots__ = ("registry", "spans", "node")

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        spans: Optional[SpanRecorder] = None,
        node: Optional[int] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.spans = spans if spans is not None else NullSpans()
        self.node = node

    @classmethod
    def disabled(cls, node: Optional[int] = None) -> "Observability":
        """Metrics *and* spans off — what ``NULL_OBS`` hands out."""
        return cls(registry=NullRegistry(), spans=NullSpans(), node=node)

    def snapshot(self) -> Dict[str, Any]:
        """Registry snapshot plus retained span lengths (JSON-safe)."""
        snapshot = self.registry.snapshot()
        if self.spans.enabled:
            snapshot["span_events"] = len(self.spans)
            snapshot["span_dropped"] = self.spans.dropped
        return snapshot


#: Shared no-op sink: the default ``Context.obs`` for harnesses that are
#: not instrumented (arena, explorer). Never attach real state to it.
NULL_OBS = Observability.disabled()

__all__ = [
    "Counter",
    "DEFAULT_SPAN_CAPACITY",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_SPANS",
    "NullRegistry",
    "NullSpans",
    "Observability",
    "PATH_FAST",
    "PATH_LEARNED",
    "PATH_SLOW",
    "SpanRecorder",
    "critical_path",
    "critical_paths",
    "decision_record",
    "default_latency_bounds",
    "fast_path_ratio",
    "merge_decision_records",
    "merge_snapshots",
    "merge_span_events",
    "message_label",
    "prometheus_text",
    "slot_paths",
    "stage_breakdown",
    "timeseries_row",
]
