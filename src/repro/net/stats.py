"""Scrape and merge live nodes' observability snapshots.

One :class:`~repro.net.wire.StatsRequest` per node over a short-lived
client connection; replies merge with the helpers in :mod:`repro.obs`
into the same ``{"nodes", "merged", "decisions", "fast_path_ratio"}``
shape :meth:`repro.sim.simulation.Simulation.stats` returns, so the
simulated and live views of one workload diff cleanly.

Dead nodes are tolerated: a node that cannot be reached contributes
``None`` to ``nodes`` and its pid is listed under ``unreachable`` —
scraping a cluster mid-crash-test is the whole point (the cluster-smoke
CI job does exactly that while one node is down).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs import merge_decision_records, merge_snapshots
from .codec import CodecError, MessageCodec, read_frame
from .node import Address, dial
from .wire import ClientHello, StatsReply, StatsRequest


async def fetch_node_stats(
    address: Address,
    codec: Optional[MessageCodec] = None,
    include_trace: bool = False,
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
    reader, writer = await dial(address, codec, ClientHello(client_id), timeout)
    try:
        writer.write(
            codec.encode(
                StatsRequest(
                    request_id=f"{client_id}:0",
                    include_trace=include_trace,
                    include_spans=include_spans,
                )
            )
        )
        await writer.drain()
        reply = await asyncio.wait_for(read_frame(reader, codec), timeout)
        if not isinstance(reply, StatsReply):
            raise CodecError(f"expected StatsReply, got {type(reply).__name__}")
        return reply
    finally:
        try:
            writer.close()
        except Exception:
            pass


async def scrape_cluster(
    addresses: Sequence[Address],
    codec: Optional[MessageCodec] = None,
    include_trace: bool = False,
    include_spans: bool = False,
    timeout: float = 5.0,
    group: Optional[int] = None,
) -> Dict[str, Any]:
    """Merge every reachable node's snapshot into one cluster view.

    Returns ``{"nodes": {pid: snapshot|None}, "merged": ...,
    "decisions": ..., "fast_path_ratio": r, "unreachable": [pid, ...]}``
    (plus ``"traces": {pid: [...]}`` when *include_trace* and a node
    returned events, and ``"spans": {pid: [...]}`` likewise under
    *include_spans*). Node keys come from each reply's own ``pid``;
    unreachable entries fall back to the address-book index.

    ``group`` tags every node key as ``"g<group>:n<pid>"`` instead of the
    bare pid — in a sharded deployment every group numbers its replicas
    0..R-1, so bare pids from different groups would collide in one view.
    """
    shared = codec if codec is not None else MessageCodec()

    async def one(index: int, address: Address) -> Tuple[int, Optional[StatsReply]]:
        try:
            reply = await fetch_node_stats(
                address,
                codec=shared,
                include_trace=include_trace,
                include_spans=include_spans,
                timeout=timeout,
                client_id=f"stats-scraper-{index}",
            )
            return (reply.pid, reply)
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, CodecError):
            return (index, None)

    results = await asyncio.gather(
        *(one(index, address) for index, address in enumerate(addresses))
    )

    def label(pid: int) -> Any:
        return pid if group is None else f"g{group}:n{pid}"

    nodes: Dict[Any, Optional[Dict[str, Any]]] = {}
    traces: Dict[Any, List[Any]] = {}
    spans: Dict[Any, List[Any]] = {}
    unreachable: List[Any] = []
    for pid, reply in results:
        if reply is None:
            nodes[label(pid)] = None
            unreachable.append(label(pid))
            continue
        nodes[label(pid)] = reply.snapshot
        if reply.trace:
            traces[label(pid)] = list(reply.trace)
        if reply.spans:
            spans[label(pid)] = [dict(event) for event in reply.spans]
    merged = merge_snapshots(snapshot for snapshot in nodes.values())
    decisions = merge_decision_records(
        {
            pid: snapshot.get("decisions", ())
            for pid, snapshot in nodes.items()
            if snapshot is not None
        }
    )
    view: Dict[str, Any] = {
        "nodes": nodes,
        "merged": merged,
        "decisions": decisions,
        "fast_path_ratio": decisions["fast_path_ratio"],
        "unreachable": sorted(unreachable),
    }
    if traces:
        view["traces"] = traces
    if spans:
        view["spans"] = spans
    return view


async def scrape_sharded_cluster(
    groups: Mapping[int, Sequence[Address]],
    codec: Optional[MessageCodec] = None,
    timeout: float = 5.0,
) -> Dict[str, Any]:
    """Merge every group's scrape into one sharded-deployment view.

    Each group is scraped with its ``g<group>:n<pid>`` tag, so per-node
    rows never collide across groups. Runtime metrics (counters, gauges,
    histograms) merge cluster-wide; **decision records do not** — slot
    numbers are per-group consensus instances, so cross-group slot
    merging would fabricate conflicts. Instead each group's decisions
    merge within the group, and the view carries:

    * ``per_group`` — each group's full :func:`scrape_cluster` view,
    * ``per_group_fast_path_ratio`` — the Theorem 5/6 empirical check
      per group (sharding must not change any group's intra-group
      quorum behavior),
    * ``fast_path_ratio`` — cluster-wide, from the merged counters,
    * ``unreachable`` — tagged node ids, and ``unreachable_groups`` —
      groups where *every* node was unreachable (a down group, a
      different failure class than a down replica),
    * ``conflicts`` — the union of per-group conflict lists, tagged.
    """
    shared = codec if codec is not None else MessageCodec()
    ordered = sorted(groups.items())
    views = await asyncio.gather(
        *(
            scrape_cluster(addresses, codec=shared, timeout=timeout, group=group)
            for group, addresses in ordered
        )
    )
    per_group: Dict[int, Dict[str, Any]] = {}
    nodes: Dict[Any, Optional[Dict[str, Any]]] = {}
    unreachable: List[Any] = []
    unreachable_groups: List[int] = []
    conflicts: List[str] = []
    for (group, _addresses), view in zip(ordered, views):
        per_group[group] = view
        nodes.update(view["nodes"])
        unreachable.extend(view["unreachable"])
        if view["nodes"] and all(
            snapshot is None for snapshot in view["nodes"].values()
        ):
            unreachable_groups.append(group)
        conflicts.extend(
            f"group {group}: {conflict}"
            for conflict in view["decisions"]["conflicts"]
        )
    merged = merge_snapshots(snapshot for snapshot in nodes.values())
    counters = merged["counters"]
    fast = counters.get("consensus.decisions_fast", 0)
    slow = counters.get("consensus.decisions_slow", 0)
    return {
        "nodes": nodes,
        "merged": merged,
        "per_group": per_group,
        "per_group_fast_path_ratio": {
            group: view["fast_path_ratio"] for group, view in per_group.items()
        },
        "fast_path_ratio": (fast / (fast + slow)) if (fast + slow) else None,
        "conflicts": conflicts,
        "unreachable": sorted(unreachable),
        "unreachable_groups": unreachable_groups,
    }


def describe_cluster_stats(view: Dict[str, Any]) -> str:
    """One-paragraph human summary of a :func:`scrape_cluster` or
    :func:`scrape_sharded_cluster` view."""
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
    conflicts = view.get("conflicts") or view.get("decisions", {}).get("conflicts")
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
