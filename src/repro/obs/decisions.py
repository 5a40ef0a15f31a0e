"""Per-slot decision records and their cluster-wide merge.

The load-bearing empirical quantity for the paper's protocol family is
*which* commits complete in two message delays (Figure 1 lines 9–17)
versus falling back to coordinator recovery (lines 43–63). Each
:class:`~repro.smr.log.SMRReplica` tags every decided slot with the path
its local consensus instance took:

``fast``
    Decided at ballot 0 from a fast quorum of ``n - e`` votes — the 2Δ
    path whose existence at ``n = max{2e+f-1, 2f+1}`` is Theorem 6.
``slow``
    Decided from a classic quorum at a ballot ``b > 0`` — the recovery
    rule ran.
``learned``
    Adopted from another process's ``Decide`` broadcast; the deciding
    quorum was assembled elsewhere, so learned slots carry no path
    information of their own and defer to the deciders when merging.

:func:`merge_decision_records` folds the per-node views into one
cluster-wide record per slot and cross-checks them: every node must
agree on the decided value of a slot (that is Agreement, so a mismatch
is reported loudly, never papered over).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional

#: Recognized decision paths, in merge-precedence order.
PATH_FAST = "fast"
PATH_SLOW = "slow"
PATH_LEARNED = "learned"


def decision_record(
    slot: int,
    path: str,
    ballot: Optional[int],
    value_id: str,
    latency_seconds: Optional[float] = None,
    decided_at: Optional[float] = None,
) -> Dict[str, Any]:
    """One node's JSON-safe record of one decided slot."""
    return {
        "slot": slot,
        "path": path,
        "ballot": ballot,
        "value_id": value_id,
        "latency_seconds": latency_seconds,
        "decided_at": decided_at,
    }


def merge_decision_records(
    per_node: Mapping[int, Iterable[Mapping[str, Any]]],
) -> Dict[str, Any]:
    """Fold per-node decision records into one view per slot.

    Returns ``{"slots": {slot: merged}, "conflicts": [...],
    "fast_slots": n, "slow_slots": n, "fast_path_ratio": r}``.

    A slot's merged ``path`` is ``fast`` if *any* node decided it at
    ballot 0 (the quorum completed the two-step path somewhere), else
    ``slow`` if any node decided by classic quorum, else ``learned``.
    ``conflicts`` lists every slot where nodes disagree on the decided
    value — Agreement says this list is empty; the cluster-smoke CI job
    asserts exactly that.
    """
    slots: Dict[int, Dict[str, Any]] = {}
    conflicts: List[str] = []
    for node, records in sorted(per_node.items()):
        for record in records:
            slot = record["slot"]
            merged = slots.get(slot)
            if merged is None:
                merged = slots[slot] = {
                    "slot": slot,
                    "path": record["path"],
                    "ballot": record["ballot"],
                    "value_id": record["value_id"],
                    "paths": {},
                    "latency_seconds": record.get("latency_seconds"),
                }
            elif merged["value_id"] != record["value_id"]:
                conflicts.append(
                    f"slot {slot}: node {node} decided {record['value_id']!r} "
                    f"but another node decided {merged['value_id']!r}"
                )
            merged["paths"][node] = record["path"]
            if _path_rank(record["path"]) < _path_rank(merged["path"]):
                merged["path"] = record["path"]
                merged["ballot"] = record["ballot"]
            if merged.get("latency_seconds") is None:
                merged["latency_seconds"] = record.get("latency_seconds")
    fast = sum(1 for m in slots.values() if m["path"] == PATH_FAST)
    slow = sum(1 for m in slots.values() if m["path"] == PATH_SLOW)
    decided = fast + slow
    return {
        "slots": {slot: slots[slot] for slot in sorted(slots)},
        "conflicts": conflicts,
        "fast_slots": fast,
        "slow_slots": slow,
        "fast_path_ratio": (fast / decided) if decided else None,
    }


def slot_paths(merged: Mapping[str, Any]) -> Dict[int, str]:
    """``{slot: path}`` from a :func:`merge_decision_records` result."""
    return {slot: record["path"] for slot, record in merged["slots"].items()}


def _path_rank(path: str) -> int:
    try:
        return (PATH_FAST, PATH_SLOW, PATH_LEARNED).index(path)
    except ValueError:
        return len((PATH_FAST, PATH_SLOW, PATH_LEARNED))
