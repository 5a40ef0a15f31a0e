"""`repro top`: a live, terminal-refreshing view of a running cluster.

Scrapes every node's observability snapshot once per interval (the same
:func:`~repro.net.stats.scrape_cluster` path ``repro stats`` uses) and
renders a fixed-width table: per-node committed-command rate (from the
delta of the commit-latency histogram count between consecutive
scrapes), fast-path ratio, stage p50/p99 latencies, event-loop lag, and
outbox high-water mark, with cluster totals underneath. No external
dependency — plain ANSI clear-screen, so it works in any terminal and
degrades to append-mode when piped.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from ..obs.export import _histogram_percentile
from .codec import MessageCodec
from .transport import Address
from .stats import scrape_cluster

__all__ = ["render_top", "run_top"]

_CLEAR = "\x1b[2J\x1b[H"


def _hist(snapshot: Mapping[str, Any], name: str) -> Mapping[str, Any]:
    return snapshot.get("histograms", {}).get(name) or {}


def _pct(snapshot: Mapping[str, Any], name: str, q: float) -> Optional[float]:
    return _histogram_percentile(snapshot.get("histograms", {}), name, q)


def _ms(value: Optional[float]) -> str:
    return "     -" if value is None else f"{value * 1000.0:6.1f}"


def _node_rate(
    snapshot: Mapping[str, Any],
    prev: Optional[Mapping[str, Any]],
    dt: Optional[float],
) -> Optional[float]:
    """Committed commands per second since the previous scrape."""
    now = _hist(snapshot, "smr.commit_seconds").get("count", 0)
    if prev is None or not dt or dt <= 0:
        return None
    before = _hist(prev, "smr.commit_seconds").get("count", 0)
    return max(0, now - before) / dt


def _fast_ratio(snapshot: Mapping[str, Any]) -> Optional[float]:
    counters = snapshot.get("counters", {})
    fast = counters.get("consensus.decisions_fast", 0)
    slow = counters.get("consensus.decisions_slow", 0)
    total = fast + slow
    return fast / total if total else None


def render_top(
    view: Mapping[str, Any],
    prev: Optional[Mapping[str, Any]] = None,
    dt: Optional[float] = None,
) -> str:
    """Render one frame of the live view from a :func:`scrape_cluster`
    result (*prev*/*dt*: the previous scrape and the seconds between
    them, for rate columns; first frame shows ``-`` rates)."""
    lines = [
        "node   cmds/s   fast%   queue p50/p99   cons p50/p99   "
        "apply p99   lag p99   outbox",
    ]
    nodes: Dict[Any, Any] = dict(view.get("nodes", {}))
    prev_nodes: Mapping[Any, Any] = (prev or {}).get("nodes", {})
    total_rate = 0.0
    saw_rate = False
    for pid in sorted(nodes, key=str):
        # scrape_cluster keys nodes by bare int pid for one group and by
        # "g<group>:n<pid>" for several. Both render as one row.
        label = pid if isinstance(pid, str) else f"n{pid}"
        snapshot = nodes[pid]
        if snapshot is None:
            lines.append(f"{label:<5}  [unreachable]")
            continue
        rate = _node_rate(snapshot, prev_nodes.get(pid), dt)
        if rate is not None:
            total_rate += rate
            saw_rate = True
        ratio = _fast_ratio(snapshot)
        outbox = max(
            (
                value
                for name, value in snapshot.get("gauges", {}).items()
                if name.startswith("net.outbox_hwm.")
            ),
            default=0,
        )
        lines.append(
            f"{label:<5} "
            + (f"{rate:8.1f}" if rate is not None else "       -")
            + (f"  {ratio * 100:5.1f}%" if ratio is not None else "       -")
            + f"   {_ms(_pct(snapshot, 'stage.queue_seconds', 0.5))}/"
            + f"{_ms(_pct(snapshot, 'stage.queue_seconds', 0.99)).strip():>6}"
            + f"   {_ms(_pct(snapshot, 'stage.consensus_seconds', 0.5))}/"
            + f"{_ms(_pct(snapshot, 'stage.consensus_seconds', 0.99)).strip():>6}"
            + f"   {_ms(_pct(snapshot, 'stage.apply_seconds', 0.99))}"
            + f"    {_ms(_pct(snapshot, 'runtime.loop_lag_seconds', 0.99))}"
            + f"   {outbox:6}"
        )
    ratio = view.get("fast_path_ratio")
    counters = view.get("merged", {}).get("counters", {})
    fast = counters.get("consensus.decisions_fast", 0)
    slow = counters.get("consensus.decisions_slow", 0)
    learned = counters.get("consensus.decisions_learned", 0)
    totals = [
        f"cluster: {fast} fast / {slow} slow / {learned} learned",
        "fast-path ratio "
        + (f"{ratio:.3f}" if ratio is not None else "n/a"),
    ]
    if saw_rate:
        totals.insert(0, f"{total_rate:,.1f} cmds/s")
    lines.append("")
    lines.append("; ".join(totals))
    unreachable = view.get("unreachable") or []
    if unreachable:
        lines.append(f"unreachable: {unreachable}")
    unreachable_groups = view.get("unreachable_groups") or []
    if unreachable_groups:
        lines.append(f"UNREACHABLE GROUPS: {unreachable_groups}")
    return "\n".join(lines)


async def run_top(
    groups: Mapping[int, Sequence[Address]],
    interval: float = 1.0,
    iterations: Optional[int] = None,
    codec: Optional[MessageCodec] = None,
    out: Callable[[str], None] = print,
    clear: bool = True,
) -> None:
    """Scrape-and-render loop over *groups* (group id -> addresses; a
    plain cluster is ``{0: addresses}``). ``iterations=None`` runs until
    cancelled; tests pass a small count and a collector *out*."""
    shared = codec if codec is not None else MessageCodec()
    loop = asyncio.get_running_loop()
    prev: Optional[Dict[str, Any]] = None
    prev_t: Optional[float] = None
    count = 0
    while iterations is None or count < iterations:
        view = await scrape_cluster(groups, codec=shared)
        now = loop.time()
        dt = (now - prev_t) if prev_t is not None else None
        frame = render_top(view, prev=prev, dt=dt)
        out((_CLEAR if clear else "") + frame)
        prev, prev_t = view, now
        count += 1
        if iterations is None or count < iterations:
            await asyncio.sleep(interval)
