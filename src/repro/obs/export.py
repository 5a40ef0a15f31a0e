"""Export surfaces for registry snapshots: Prometheus text + JSONL rows.

Two consumers, two formats, one source (`Observability.snapshot()`):

* :func:`prometheus_text` renders a snapshot in the Prometheus text
  exposition format (v0.0.4) — counters, high-water gauges, and
  cumulative-bucket histograms — so any off-the-shelf scraper can point
  at a node's client port and `GET /metrics` (:func:`serve_http`; a
  4-byte ASCII method prefix can never be a legal frame length).
* :func:`timeseries_row` flattens the operationally interesting subset
  into one JSON-safe dict per sample tick; :func:`write_timeseries`
  appends one row per interval to `<dir>/node-<pid>.jsonl`, giving
  post-hoc dashboards a replayable feed without any scraper running.

The live-node coroutines here (with :func:`sample_loop_lag`) read only
the node's `obs`, `pid`, `now` and `crashed`.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import re
from typing import Any, Dict, Mapping, Optional

from .registry import Histogram

__all__ = [
    "LOOP_LAG_INTERVAL",
    "TIMESERIES_INTERVAL",
    "prometheus_text",
    "sample_loop_lag",
    "serve_http",
    "timeseries_row",
    "write_timeseries",
]

#: Seconds between a live node's event-loop lag samples.
LOOP_LAG_INTERVAL = 0.25
#: Seconds between a live node's time-series rows.
TIMESERIES_INTERVAL = 1.0

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_PREFIX = "repro_"


def _metric_name(raw: str) -> str:
    """`smr.commit_seconds` → `repro_smr_commit_seconds` (spec-legal)."""
    name = _NAME_OK.sub("_", raw.replace(".", "_"))
    if name and name[0].isdigit():
        name = "_" + name
    return _PREFIX + name


def _render_labels(labels: Optional[Mapping[str, str]], extra: str = "") -> str:
    parts = []
    if labels:
        for key, value in sorted(labels.items()):
            escaped = str(value).replace("\\", "\\\\").replace('"', '\\"')
            parts.append(f'{key}="{escaped}"')
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: Any) -> str:
    if value is None:
        return "NaN"
    number = float(value)
    if number == float("inf"):
        return "+Inf"
    if number == float("-inf"):
        return "-Inf"
    return repr(number) if isinstance(value, float) else str(value)


def prometheus_text(
    snapshot: Mapping[str, Any], labels: Optional[Mapping[str, str]] = None
) -> str:
    """Render one node's snapshot in Prometheus text exposition format.

    Counters keep their monotonic semantics, gauges are the high-water
    marks the registry tracks, and each histogram becomes the standard
    cumulative `_bucket{le=...}` series plus `_sum` and `_count` (the
    registry's buckets are per-bucket counts with inclusive upper
    edges, so the cumulative transform is a running sum ending at
    `+Inf` = total count).
    """
    lines = []
    plain = _render_labels(labels)

    for raw in sorted(snapshot.get("counters", {})):
        name = _metric_name(raw)
        lines.append(f"# TYPE {name} counter")
        lines.append(
            f"{name}{plain} {_format_value(snapshot['counters'][raw])}"
        )

    for raw in sorted(snapshot.get("gauges", {})):
        name = _metric_name(raw)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name}{plain} {_format_value(snapshot['gauges'][raw])}")

    for raw in sorted(snapshot.get("histograms", {})):
        histogram = snapshot["histograms"][raw]
        name = _metric_name(raw)
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        bounds = histogram.get("bounds", ())
        counts = histogram.get("counts", ())
        for bound, count in zip(bounds, counts):
            cumulative += count
            le = _render_labels(labels, f'le="{_format_value(float(bound))}"')
            lines.append(f"{name}_bucket{le} {cumulative}")
        total = histogram.get("count", 0)
        inf = _render_labels(labels, 'le="+Inf"')
        lines.append(f"{name}_bucket{inf} {total}")
        lines.append(f"{name}_sum{plain} {_format_value(histogram.get('sum', 0.0))}")
        lines.append(f"{name}_count{plain} {total}")

    return "\n".join(lines) + "\n"


def timeseries_row(
    snapshot: Mapping[str, Any], t: float, node: int
) -> Dict[str, Any]:
    """One flat JSONL row: the live-dashboard subset of a snapshot."""
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    commits = histograms.get("smr.commit_seconds", {})
    fast = counters.get("consensus.decisions_fast", 0)
    slow = counters.get("consensus.decisions_slow", 0)

    def ms(name: str, q: float) -> Optional[float]:
        payload = histograms.get(name)
        seconds = Histogram.from_dict(payload).percentile(q) if payload else None
        return None if seconds is None else seconds * 1000.0

    return {
        "t": t,
        "node": node,
        "decisions_fast": fast,
        "decisions_slow": slow,
        "decisions_learned": counters.get("consensus.decisions_learned", 0),
        "slots_decided": counters.get("smr.slots_decided", 0),
        "commands_committed": commits.get("count", 0),
        "commit_p50_ms": ms("smr.commit_seconds", 0.5),
        "commit_p99_ms": ms("smr.commit_seconds", 0.99),
        "queue_p99_ms": ms("stage.queue_seconds", 0.99),
        "consensus_p99_ms": ms("stage.consensus_seconds", 0.99),
        "loop_lag_p99_ms": ms("runtime.loop_lag_seconds", 0.99),
        "fsync_p99_ms": ms("storage.fsync_seconds", 0.99),
        "sent_bytes": sum(
            value
            for name, value in counters.items()
            if name.startswith("sent_bytes.")
        ),
        "recv_bytes": sum(
            value
            for name, value in counters.items()
            if name.startswith("recv_bytes.")
        ),
        "outbox_hwm": max(
            (
                value
                for name, value in gauges.items()
                if name.startswith("net.outbox_hwm.")
            ),
            default=0,
        ),
        "span_events": snapshot.get("span_events", 0),
    }


async def serve_http(
    node: Any,
    prefix: bytes,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Answer one HTTP/1.0 request on a node's wire port: ``GET /metrics``.

    Minimal by design — one request, ``Connection: close``, no
    keep-alive — just enough for a Prometheus scraper or ``curl``.
    *prefix* is the 4 bytes the node already read. The exposition is
    rendered from the live snapshot with a ``node`` label, so scraping
    every node of a cluster and letting the server sum counters
    reproduces ``merge_snapshots``.
    """
    try:
        rest = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 2.0)
    except (
        asyncio.TimeoutError,
        asyncio.IncompleteReadError,
        asyncio.LimitOverrunError,
        ConnectionError,
    ):
        return
    request_line = (prefix + rest).split(b"\r\n", 1)[0].decode(
        "latin-1", "replace"
    )
    parts = request_line.split()
    path = parts[1].split("?")[0] if len(parts) > 1 else "/"
    if path in ("/", "/metrics"):
        status = b"200 OK"
        body = prometheus_text(
            node.obs.snapshot(), labels={"node": str(node.pid)}
        ).encode("utf-8")
    else:
        status = b"404 Not Found"
        body = b"try /metrics\n"
    head = (
        b"HTTP/1.0 " + status + b"\r\n"
        b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
        b"Connection: close\r\n\r\n"
    )
    writer.write(head if prefix == b"HEAD" else head + body)
    await writer.drain()
    node.obs.registry.inc("net.http_scrapes")


async def sample_loop_lag(node: Any) -> None:
    """Sample event-loop lag: how late a timed sleep actually wakes.

    Lag is the gap between when ``sleep(interval)`` should have
    returned and when it did — the queueing delay every timer and
    every activation on the node experiences. The histogram gives
    the distribution, the gauge the worst stall since launch.
    """
    registry = node.obs.registry
    loop = asyncio.get_event_loop()
    while not node.crashed:
        expected = loop.time() + LOOP_LAG_INTERVAL
        await asyncio.sleep(LOOP_LAG_INTERVAL)
        lag = max(0.0, loop.time() - expected)
        registry.observe("runtime.loop_lag_seconds", lag)
        registry.gauge_max("runtime.loop_lag_max_seconds", lag)


async def write_timeseries(node: Any, path: str) -> None:
    """Append one JSONL snapshot row to *path* per interval.

    The write is a single short line through a per-tick append —
    blocking the loop for microseconds at 1 Hz — so no thread pool
    is needed. Rows are cumulative (counters, not deltas); consumers
    diff successive rows for rates, exactly like ``repro top``.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    registry = node.obs.registry
    while not node.crashed:
        await asyncio.sleep(TIMESERIES_INTERVAL)
        row = timeseries_row(node.obs.snapshot(), t=node.now, node=node.pid)
        with target.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(row) + "\n")
        registry.inc("obs.timeseries_rows")
