"""Causal per-command spans: sampled stage events and the critical-path merger.

The registry (:mod:`repro.obs.registry`) answers *how many* and *how
long in aggregate*; spans answer *where one command's time went*.  A
sampled command gets a trace id minted at batch seal (or carried in
from the submitting client), every stage it passes through on every
node appends one event to that node's :class:`SpanRecorder`, and the
scraper-side merger (:func:`merge_span_events` →
:func:`critical_paths`) reconstructs the end-to-end story per command:
how long it queued before the seal, how long consensus took (and
whether it went the 2Δ fast path or the recovery path), how long apply
and reply took.  That decomposition is the paper's two-step latency
argument made measurable on the live stack.

A :class:`SpanRecorder` is a bounded ring that never renumbers ``seq``
(so gaps reveal drops), events are plain JSON-safe dicts, and the null
variant costs one attribute check on the hot path.  Sampling is decided
exactly once per slot — at the sealing proxy — and every downstream
stage merely checks "is this slot traced?", so the un-sampled hot path
stays at a dict miss.

Clock-skew rule: stage *deltas* are only ever computed between events
recorded on the same node (the origin proxy), so merged critical paths
are valid even when node clocks disagree.  Events from remote nodes
ride along for causal inspection but never enter a subtraction.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = [
    "DEFAULT_SPAN_CAPACITY",
    "SpanRecorder",
    "NullSpans",
    "NULL_SPANS",
    "merge_span_events",
    "critical_path",
    "critical_paths",
    "stage_breakdown",
]

DEFAULT_SPAN_CAPACITY = 8192

#: Stage names whose deltas build the critical path, in causal order.
STAGES = ("submit", "seal", "decide", "apply", "reply")


class SpanRecorder:
    """Bounded ring of span events with deterministic slot sampling.

    ``sample=N`` samples every Nth sealed slot at the deciding proxy
    (1 = every slot); ``sample=0`` mints no traces of its own but still
    records events for traces adopted from clients or peers — the
    follower configuration.
    """

    __slots__ = ("sample", "capacity", "dropped", "_events", "_seq", "_seals")

    enabled = True

    def __init__(self, sample: int = 0, capacity: int = DEFAULT_SPAN_CAPACITY):
        if sample < 0:
            raise ValueError(f"sample must be >= 0, got {sample}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sample = sample
        self.capacity = capacity
        self.dropped = 0
        self._events: deque = deque()
        self._seq = 0
        self._seals = 0

    def maybe_sample(self, origin: int, slot: int) -> Optional[str]:
        """Mint a trace id for every Nth seal; None when not sampled."""
        if not self.sample:
            return None
        self._seals += 1
        if (self._seals - 1) % self.sample:
            return None
        return f"t{origin}.{slot}"

    def record(self, trace_id: str, stage: str, t: float, **fields: Any) -> int:
        """Append one span event; returns its seq (the child's parent)."""
        seq = self._seq
        self._seq += 1
        event = {"seq": seq, "trace": trace_id, "stage": stage, "t": t}
        if fields:
            event.update(fields)
        self._events.append(event)
        if len(self._events) > self.capacity:
            self._events.popleft()
            self.dropped += 1
        return seq

    def events(self) -> List[Dict[str, Any]]:
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)


class NullSpans(SpanRecorder):
    """No-op recorder: one ``enabled`` check is the whole cost."""

    enabled = False

    def __init__(self):
        super().__init__(sample=0, capacity=1)

    def maybe_sample(self, origin: int, slot: int) -> Optional[str]:
        return None

    def record(self, trace_id: str, stage: str, t: float, **fields: Any) -> int:
        return -1


NULL_SPANS = NullSpans()


def merge_span_events(
    per_node: Mapping[int, Sequence[Mapping[str, Any]]],
) -> Dict[str, List[Dict[str, Any]]]:
    """Group every node's span events by trace id, in causal order.

    Each event gains a ``node`` field; within a trace, events sort by
    ``(t, node, seq)`` — good enough for display, while the delta
    arithmetic in :func:`critical_path` only trusts same-node pairs.
    """
    traces: Dict[str, List[Dict[str, Any]]] = {}
    for pid, events in per_node.items():
        for event in events or ():
            tagged = dict(event)
            tagged["node"] = pid
            traces.setdefault(tagged["trace"], []).append(tagged)
    for events in traces.values():
        events.sort(key=lambda e: (e["t"], e["node"], e["seq"]))
    return traces


def critical_path(events: Sequence[Mapping[str, Any]]) -> Optional[Dict[str, Any]]:
    """Reduce one trace's events to its stage-latency decomposition.

    Returns None when the trace has no ``seal`` event (it never made it
    into a slot, or the seal was evicted from the ring).  All deltas
    are computed from events recorded on the *origin* node — the proxy
    that sealed the batch — because only same-clock subtractions mean
    anything; ``remote_nodes`` lists every other node that touched the
    trace.
    """
    seal = next((e for e in events if e["stage"] == "seal"), None)
    if seal is None:
        return None
    origin = seal["node"]
    local = [e for e in events if e["node"] == origin]

    def first(stage: str) -> Optional[Mapping[str, Any]]:
        return next((e for e in local if e["stage"] == stage), None)

    submits = [e for e in local if e["stage"] == "submit"]
    decide = first("decide")
    apply_event = first("apply")
    replies = [e for e in local if e["stage"] == "reply"]

    stages: Dict[str, float] = {}
    if submits:
        stages["queue"] = max(0.0, seal["t"] - min(e["t"] for e in submits))
    if decide is not None:
        stages["consensus"] = max(0.0, decide["t"] - seal["t"])
        if apply_event is not None:
            stages["apply"] = max(0.0, apply_event["t"] - decide["t"])
            if replies:
                stages["reply"] = max(
                    0.0, max(e["t"] for e in replies) - apply_event["t"]
                )
    start = min(e["t"] for e in submits) if submits else seal["t"]
    end_event = (
        replies[-1] if replies else (apply_event or decide or seal)
    )
    stages["total"] = max(0.0, end_event["t"] - start)

    return {
        "trace": seal["trace"],
        "origin": origin,
        "slot": seal.get("slot"),
        "path": decide.get("path") if decide is not None else None,
        "ballot": decide.get("ballot") if decide is not None else None,
        "commands": seal.get("commands"),
        "stages": stages,
        "events": len(events),
        "remote_nodes": sorted({e["node"] for e in events} - {origin}),
    }


def critical_paths(
    traces: Mapping[str, Sequence[Mapping[str, Any]]],
) -> List[Dict[str, Any]]:
    """Merge view → one critical path per complete trace, slot order."""
    paths = [critical_path(events) for events in traces.values()]
    complete = [p for p in paths if p is not None]
    complete.sort(key=lambda p: (p["slot"] is None, p["slot"], p["trace"]))
    return complete


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile over raw values (small lists; exact)."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(q * (len(ordered) - 1) + 0.5)))
    return ordered[index]


def stage_breakdown(
    paths: Iterable[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Fast-path vs recovery-path stage latency summary.

    ``{"paths": {path: {stage: {count, mean, p50, p99}}}, "counts": ...}``
    — the headline artifact: reading ``fast`` vs ``slow`` rows side by
    side shows exactly where the recovery path pays its extra delays.
    """
    by_path: Dict[str, Dict[str, List[float]]] = {}
    counts: Dict[str, int] = {}
    for path in paths:
        key = path.get("path") or "undecided"
        counts[key] = counts.get(key, 0) + 1
        buckets = by_path.setdefault(key, {})
        for stage, seconds in path["stages"].items():
            buckets.setdefault(stage, []).append(seconds)
    summary: Dict[str, Dict[str, Dict[str, float]]] = {}
    for key, buckets in by_path.items():
        summary[key] = {}
        for stage, values in buckets.items():
            summary[key][stage] = {
                "count": len(values),
                "mean": sum(values) / len(values),
                "p50": _percentile(values, 0.5),
                "p99": _percentile(values, 0.99),
            }
    return {"paths": summary, "counts": counts}
