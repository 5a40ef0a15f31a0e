"""Low-overhead metrics: counters, gauges, and mergeable histograms.

The registry is the always-on per-node part of the observability layer
(per-slot decision records live in :mod:`repro.obs.decisions`, sampled
per-command spans in :mod:`repro.obs.spans`). Its design goals, in
order:

1. **Cheap on the hot path.** Incrementing a counter is one dict lookup
   and one integer add; observing a latency is a binary search over a
   small tuple of bucket bounds. No locks (both runtimes are
   single-threaded per node), no timestamps, no allocation after the
   first touch of a name.
2. **Mergeable.** A cluster-wide view is the element-wise merge of the
   per-node snapshots: counters add, gauges keep their maximum (every
   gauge here is a high-water mark), histograms add bucket counts.
   Merging works across processes and across machines because snapshots
   are plain JSON-safe dicts.
3. **Identical shape in both runtimes.** The simulator and the live
   cluster write the same metric names through the same
   :class:`~repro.core.process.Context` seam, so a simulated run's
   fast-path ratio is directly comparable with a live one — the check
   behind the paper's e-two-step claim (Theorems 5/6).

Histograms use *fixed* bucket bounds chosen at creation (default: a
geometric ladder suited to commit latencies from 0.1 ms to ~1 min). Two
histograms merge only if their bounds agree — a mismatch raises rather
than silently mixing scales.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


def default_latency_bounds() -> Tuple[float, ...]:
    """Geometric bucket ladder: 0.1 ms doubling up to ~52 s (20 buckets)."""
    return tuple(0.0001 * (2.0 ** i) for i in range(20))


class Counter:
    """Monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, delta: int = 1) -> None:
        self.value += delta


class Gauge:
    """A sampled value; :meth:`max_of` keeps the high-water mark."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def max_of(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max sidecars.

    ``bounds`` are the inclusive upper edges of the first ``len(bounds)``
    buckets; one overflow bucket catches everything beyond the last edge.
    Bucket ``i`` therefore holds samples ``v`` with
    ``bounds[i-1] < v <= bounds[i]``. Percentiles are approximated by the
    upper edge of the bucket containing the requested rank (the overflow
    bucket reports the exact observed maximum).
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        self.bounds: Tuple[float, ...] = (
            tuple(bounds) if bounds is not None else default_latency_bounds()
        )
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        """Fold *other* into this histogram (bounds must be identical)."""
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds "
                f"({len(self.bounds)} vs {len(other.bounds)} edges)"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.count += other.count
        self.sum += other.sum
        for value in (other.min,):
            if value is not None and (self.min is None or value < self.min):
                self.min = value
        for value in (other.max,):
            if value is not None and (self.max is None or value > self.max):
                self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def percentile(self, q: float) -> Optional[float]:
        """Upper-edge estimate of the *q*-quantile (``0 < q <= 1``).

        ``q = 1.0`` is exact: the max sidecar tracks every observation,
        so the full quantile never over-reports by a bucket edge (the
        single-sample-in-a-bucket case). Interior quantiles are bucket
        upper edges, clamped to the observed max so a lone sample in a
        wide bucket reports its true value rather than the edge.
        Every input (bounds, counts, min/max, count) is
        order-independent under :meth:`merge`, so merge-then-percentile
        equals percentile-of-the-union by construction.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if not self.count:
            return None
        if q == 1.0:
            return self.max
        rank = q * self.count
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank and count:
                if index < len(self.bounds):
                    edge = self.bounds[index]
                    return edge if self.max is None else min(edge, self.max)
                return self.max  # overflow bucket: exact observed max
        return self.max

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Histogram":
        histogram = cls(bounds=payload["bounds"])
        counts = list(payload["counts"])
        if len(counts) != len(histogram.counts):
            raise ValueError("histogram payload counts do not match its bounds")
        histogram.counts = counts
        histogram.count = int(payload["count"])
        histogram.sum = float(payload["sum"])
        histogram.min = payload.get("min")
        histogram.max = payload.get("max")
        return histogram


class MetricsRegistry:
    """One node's named counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create accessors ---------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        return histogram

    # -- hot-path conveniences -----------------------------------------

    def inc(self, name: str, delta: int = 1) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        counter.value += delta

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def gauge_max(self, name: str, value: float) -> None:
        self.gauge(name).max_of(value)

    # -- introspection --------------------------------------------------

    def counter_value(self, name: str) -> int:
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of everything this registry holds."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.to_dict() for name, h in sorted(self._histograms.items())
            },
        }


class NullRegistry(MetricsRegistry):
    """Registry whose write paths are no-ops (metrics disabled)."""

    def inc(self, name: str, delta: int = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def gauge_max(self, name: str, value: float) -> None:
        pass


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Cluster-wide view from per-node snapshots.

    Counters add, gauges keep the maximum (every gauge is a high-water
    mark), histograms merge bucket-wise. Non-registry keys that nodes may
    attach to their snapshots (``node``, ``decisions``, ...) are ignored
    here — merge those with the helpers in :mod:`repro.obs.decisions`.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Histogram] = {}
    for snapshot in snapshots:
        if snapshot is None:
            continue
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            if name not in gauges or value > gauges[name]:
                gauges[name] = value
        for name, payload in snapshot.get("histograms", {}).items():
            incoming = Histogram.from_dict(payload)
            if name in histograms:
                try:
                    histograms[name].merge(incoming)
                except ValueError as error:
                    raise ValueError(f"histogram {name!r}: {error}") from None
            else:
                histograms[name] = incoming
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": {name: h.to_dict() for name, h in sorted(histograms.items())},
    }


def fast_path_ratio(snapshot: Mapping[str, Any]) -> Optional[float]:
    """Fraction of quorum decisions taken on the 2Δ fast path.

    Computed from the ``consensus.decisions_fast`` / ``_slow`` counters;
    ``learned`` decisions (adopted from another process's ``Decide``
    broadcast) mirror a decision counted elsewhere and are excluded.
    Returns ``None`` when the node decided nothing by quorum.
    """
    counters = snapshot.get("counters", {})
    fast = counters.get("consensus.decisions_fast", 0)
    slow = counters.get("consensus.decisions_slow", 0)
    total = fast + slow
    return fast / total if total else None
