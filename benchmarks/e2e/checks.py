"""Correctness checks on what the deployment applied and acknowledged.

Pure functions over plain data (``sut.Deployment.applied_logs()`` and
the replies the clients collected); the reference model is a dict owned
by the benchmark, not the program's ``KVStore``. A run whose checks
report a problem fails — it does not just print it.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Mapping, Sequence

from loadgen import PlainCommand

#: group -> one applied log per replica.
Logs = Mapping[int, Sequence[Sequence[PlainCommand]]]


def _is_data(command: PlainCommand) -> bool:
    """Client traffic, as opposed to noop fillers, shard config and
    catalog entries (reserved ``__`` ids or keys)."""
    op, key, _value, command_id = command
    return op in ("get", "put") and not key.startswith("__") and not command_id.startswith("__")


def logs_identical(logs: Logs) -> List[str]:
    problems = []
    for group, replicas in logs.items():
        if not replicas:
            problems.append(f"group {group}: no surviving replica")
        elif any(list(log) != list(replicas[0]) for log in replicas[1:]):
            lengths = [len(log) for log in replicas]
            problems.append(f"group {group}: applied logs differ (lengths {lengths})")
    return problems


def applied_exactly_once(logs: Logs, acked: Mapping[str, Any]) -> List[str]:
    """Every acknowledged id is in exactly one group's log, once; no
    data command at all is applied twice anywhere in the deployment."""
    applied: Counter = Counter(
        command[3]
        for replicas in logs.values()
        if replicas
        for command in replicas[0]
        if _is_data(command)
    )
    problems = []
    lost = [command_id for command_id in acked if applied[command_id] == 0]
    twice = [command_id for command_id, count in applied.items() if count > 1]
    if lost:
        problems.append(f"{len(lost)} acknowledged command(s) never applied, e.g. {lost[0]}")
    if twice:
        problems.append(f"{len(twice)} command(s) applied more than once, e.g. {twice[0]}")
    return problems


def wrong_results(logs: Logs, acked: Mapping[str, Any]) -> List[str]:
    """Replay each group's log through a dict; an acknowledged result
    must equal what the sequential replay returns at that position."""
    wrong: List[str] = []
    for replicas in logs.values():
        if not replicas:
            continue
        model: Dict[str, Any] = {}
        for op, key, value, command_id in replicas[0]:
            if not _is_data((op, key, value, command_id)):
                continue
            if op == "put":
                model[key] = value
                expected = value
            else:
                expected = model.get(key)
            if command_id in acked and acked[command_id] != expected:
                wrong.append(command_id)
    return wrong


def acked_puts_recovered(logs: Logs, acked_puts: Sequence[str]) -> List[str]:
    """After kill -9 and restart: every acknowledged put is in every
    recovered replica's log."""
    problems = []
    for group, replicas in logs.items():
        for index, log in enumerate(replicas):
            present = {command[3] for command in log}
            lost = [command_id for command_id in acked_puts if command_id not in present]
            if lost:
                problems.append(
                    f"group {group} replica {index}: {len(lost)} acknowledged put(s) "
                    f"missing after recovery, e.g. {lost[0]}"
                )
    return problems


def group_imbalance(logs: Logs, command_ids: Sequence[str]) -> float:
    """max / mean - 1 of how the given commands spread over the groups."""
    wanted = set(command_ids)
    per_group = [
        sum(1 for command in replicas[0] if command[3] in wanted) if replicas else 0
        for replicas in logs.values()
    ]
    mean = sum(per_group) / len(per_group)
    return max(per_group) / mean - 1.0 if mean else 0.0
