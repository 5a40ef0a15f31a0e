"""Scrape and merge live nodes' observability snapshots.

One :class:`~repro.net.wire.StatsRequest` per node over a short-lived
client connection; replies merge with the helpers in :mod:`repro.obs`
into one view for one group or G groups, whose ``{"nodes", "merged",
"decisions", "fast_path_ratio"}`` part has the shape
:meth:`repro.sim.simulation.Simulation.stats` returns, so the simulated
and live views of one workload diff cleanly.

Dead nodes are tolerated: a node that cannot be reached contributes
``None`` to ``nodes`` and its label is listed under ``unreachable`` —
scraping a cluster mid-crash-test is the whole point (the cluster-smoke
CI job does exactly that while one node is down).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs import merge_decision_records, merge_snapshots
from .codec import CodecError, MessageCodec
from .transport import Address, exchange
from .wire import StatsReply, StatsRequest


async def fetch_node_stats(
    address: Address,
    codec: Optional[MessageCodec] = None,
    include_spans: bool = False,
    timeout: float = 5.0,
    client_id: str = "stats-scraper",
) -> StatsReply:
    """Fetch one node's :class:`StatsReply` over a throwaway connection.

    Raises the underlying ``OSError``/``asyncio.TimeoutError``/
    ``CodecError`` on failure; :func:`scrape_cluster` catches those per
    node, direct callers get the real cause.
    """
    codec = codec if codec is not None else MessageCodec()
    request = StatsRequest(request_id=f"{client_id}:0", include_spans=include_spans)
    async with exchange(address, codec, client_id, request, timeout) as receive:
        reply = await receive()
    if not isinstance(reply, StatsReply):
        raise CodecError(f"expected StatsReply, got {type(reply).__name__}")
    return reply


async def scrape_cluster(
    groups: Mapping[int, Sequence[Address]],
    codec: Optional[MessageCodec] = None,
    include_spans: bool = False,
    timeout: float = 5.0,
) -> Dict[str, Any]:
    """Merge every reachable node of every group into one cluster view.

    *groups* maps group id -> addresses; a plain cluster is
    ``{0: addresses}``. Returns ``{"nodes": {label: snapshot|None},
    "merged": ..., "decisions": ..., "fast_path_ratio": r,
    "per_group_fast_path_ratio": {group: r}, "unreachable": [label, ...],
    "unreachable_groups": [group, ...]}`` (plus ``"spans": {label:
    [...]}`` when *include_spans* and a node returned events).

    Labels are bare pids for one group and ``"g<group>:n<pid>"`` for
    several, since every group numbers its replicas 0..R-1; a node's pid
    comes from its reply, or from its address-book index when it is
    unreachable. Runtime metrics (counters, gauges, histograms) merge
    across all nodes. Decision records merge within each group only —
    slot numbers are per-group consensus instances, so a cross-group
    merge would fabricate conflicts — and ``decisions`` joins the groups'
    results: their slots (keyed ``"g<group>:<slot>"`` for several
    groups) and conflicts, and summed ``fast_slots``/``slow_slots``.
    ``per_group_fast_path_ratio`` is the Theorem 5/6 check per group, and
    ``unreachable_groups`` lists groups where *every* node was
    unreachable — a down group, a different failure than a down replica.
    """
    shared = codec if codec is not None else MessageCodec()
    tagged = len(groups) > 1

    async def one(
        group: int, index: int, address: Address
    ) -> Tuple[int, int, Optional[StatsReply]]:
        try:
            reply = await fetch_node_stats(
                address,
                codec=shared,
                include_spans=include_spans,
                timeout=timeout,
                client_id=f"stats-scraper-{group}-{index}",
            )
            return (group, reply.pid, reply)
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, CodecError):
            return (group, index, None)

    results = await asyncio.gather(
        *(
            one(group, index, address)
            for group, addresses in sorted(groups.items())
            for index, address in enumerate(addresses)
        )
    )

    def label(group: int, prefix: str, key: int) -> Any:
        return f"g{group}:{prefix}{key}" if tagged else key

    nodes: Dict[Any, Optional[Dict[str, Any]]] = {}
    members: Dict[int, Dict[Any, Optional[Dict[str, Any]]]] = {
        group: {} for group in sorted(groups)
    }
    spans: Dict[Any, List[Any]] = {}
    for group, pid, reply in results:
        node = label(group, "n", pid)
        snapshot = reply.snapshot if reply is not None else None
        nodes[node] = members[group][node] = snapshot
        if reply is not None and reply.spans:
            spans[node] = [dict(event) for event in reply.spans]
    per_group = {
        group: merge_decision_records(
            {
                node: snapshot.get("decisions", ())
                for node, snapshot in group_nodes.items()
                if snapshot is not None
            }
        )
        for group, group_nodes in members.items()
    }
    fast = sum(decided["fast_slots"] for decided in per_group.values())
    slow = sum(decided["slow_slots"] for decided in per_group.values())
    decisions = {
        "slots": {
            label(group, "", slot): record
            for group, decided in per_group.items()
            for slot, record in decided["slots"].items()
        },
        "conflicts": [
            conflict
            for decided in per_group.values()
            for conflict in decided["conflicts"]
        ],
        "fast_slots": fast,
        "slow_slots": slow,
        "fast_path_ratio": (fast / (fast + slow)) if (fast + slow) else None,
    }
    view: Dict[str, Any] = {
        "nodes": nodes,
        "merged": merge_snapshots(nodes.values()),
        "decisions": decisions,
        "fast_path_ratio": decisions["fast_path_ratio"],
        "per_group_fast_path_ratio": {
            group: decided["fast_path_ratio"] for group, decided in per_group.items()
        },
        "unreachable": sorted(
            node for node, snapshot in nodes.items() if snapshot is None
        ),
        "unreachable_groups": [
            group
            for group, group_nodes in members.items()
            if group_nodes
            and all(snapshot is None for snapshot in group_nodes.values())
        ],
    }
    if spans:
        view["spans"] = spans
    return view


def describe_cluster_stats(view: Dict[str, Any]) -> str:
    """One-paragraph human summary of a :func:`scrape_cluster` view."""
    counters = view["merged"]["counters"]
    fast = counters.get("consensus.decisions_fast", 0)
    slow = counters.get("consensus.decisions_slow", 0)
    learned = counters.get("consensus.decisions_learned", 0)
    ratio = view.get("fast_path_ratio")
    parts = [
        f"decisions: {fast} fast / {slow} slow / {learned} learned",
        "fast-path ratio: "
        + (f"{ratio:.3f}" if ratio is not None else "n/a (nothing decided)"),
    ]
    if "decisions" in view:
        parts.append(f"slots merged: {len(view['decisions']['slots'])}")
    per_group = view.get("per_group_fast_path_ratio")
    if per_group:
        parts.append(
            "per-group fast-path: "
            + " ".join(
                f"g{group}="
                + (f"{group_ratio:.3f}" if group_ratio is not None else "n/a")
                for group, group_ratio in sorted(per_group.items())
            )
        )
    conflicts = view.get("decisions", {}).get("conflicts")
    if conflicts:
        parts.append(f"CONFLICTS: {conflicts}")
    if view.get("unreachable_groups"):
        parts.append(f"UNREACHABLE GROUPS: {view['unreachable_groups']}")
    if view["unreachable"]:
        parts.append(f"unreachable nodes: {view['unreachable']}")
    if any(name.startswith("storage.") for name in counters):
        parts.append(
            "storage: "
            f"{counters.get('storage.wal_appends', 0)} wal appends / "
            f"{counters.get('storage.wal_fsyncs', 0)} fsyncs, "
            f"{counters.get('storage.snapshots_written', 0)} snapshots, "
            f"{counters.get('storage.replayed_entries', 0)} replayed, "
            f"{counters.get('storage.snapshot_transfers', 0)} transfers "
            f"({counters.get('storage.transferred_entries', 0)} entries)"
        )
    sent = sum(
        value for name, value in counters.items() if name.startswith("sent_bytes.")
    )
    if sent:
        parts.append(f"bytes sent: {sent:,}")
    wires = [
        snapshot["wire"]
        for snapshot in view["nodes"].values()
        if snapshot is not None and "wire" in snapshot
    ]
    if wires:
        parts.append(
            "wire: registry "
            + "/".join(sorted({wire["registry_hash"] for wire in wires}))
            + f", {sum(wire['peer_links_out'] for wire in wires)} peer links"
            + f", {sum(wire['client_links'] for wire in wires)} client links"
        )
    return "; ".join(parts)
