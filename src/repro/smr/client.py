"""Client workloads for the replicated KV service, and consistency checks.

Clients here are schedule entries, not processes: each entry says *when*
which *proxy* receives which command (Schneider's client-to-proxy model —
the client talks to one consensus process and waits for its answer). The
harness injects them into a simulation, runs it, and extracts
proxy-observed commit latency per command, which is the quantity the
paper's definition is about.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.errors import ConfigurationError
from ..core.process import ProcessFactory, ProcessId
from ..core.specs import Violation
from ..sim.failures import CrashPlan
from ..sim.latency import FixedLatency, LatencyModel
from ..sim.simulation import Simulation
from .kvstore import KVCommand
from .log import SMRReplica, SubmitCommand


@dataclass(frozen=True)
class ClientOp:
    """One scheduled client submission."""

    time: float
    proxy: ProcessId
    command: KVCommand


@dataclass
class WorkloadOutcome:
    """What a workload run produced."""

    simulation: Simulation
    ops: List[ClientOp]
    commit_latency: Dict[str, float] = field(default_factory=dict)
    apply_latency: Dict[str, float] = field(default_factory=dict)
    results: Dict[str, object] = field(default_factory=dict)
    unfinished: List[str] = field(default_factory=list)

    @property
    def replicas(self) -> List[SMRReplica]:
        return list(self.simulation.processes)  # type: ignore[return-value]


def zipf_weights(count: int, exponent: float) -> List[float]:
    """Zipf(s) popularity weights for *count* ranked items (rank 1 first)."""
    if exponent < 0:
        raise ConfigurationError(f"zipf exponent must be >= 0, got {exponent}")
    return [1.0 / (rank**exponent) for rank in range(1, count + 1)]


def put_get_workload(
    count: int,
    keys: Sequence[str],
    proxies: Sequence[ProcessId],
    spacing: float = 3.0,
    put_fraction: float = 0.7,
    seed: int = 0,
    key_skew: Optional[float] = None,
) -> List[ClientOp]:
    """A mixed put/get workload spread over proxies and time from ``t = 0``.

    Commands are spaced ``spacing`` apart by default so each normally
    commits on the fast path before the next arrives; pass ``spacing=0``
    to force slot races.

    ``key_skew`` switches key popularity from uniform to Zipf with that
    exponent (``0`` degenerates to uniform): the first key in *keys* is
    the hottest. Skewed workloads are what make shard placement
    interesting — a hash map balances *keys*, not *traffic*.
    """
    if not keys or not proxies:
        raise ConfigurationError("need at least one key and one proxy")
    rng = random.Random(seed)
    key_pool = list(keys)  # materialized once, not per command
    cum_weights: Optional[List[float]] = None
    if key_skew is not None:
        weights = zipf_weights(len(key_pool), key_skew)
        cum_weights = list(itertools.accumulate(weights))
    ops = []
    for index in range(count):
        if cum_weights is not None:
            key = rng.choices(key_pool, cum_weights=cum_weights, k=1)[0]
        else:
            key = rng.choice(key_pool)
        proxy = proxies[index % len(proxies)]
        if rng.random() < put_fraction:
            command = KVCommand(
                op="put", key=key, value=index, command_id=f"cmd-{index}"
            )
        else:
            command = KVCommand(op="get", key=key, command_id=f"cmd-{index}")
        ops.append(ClientOp(time=index * spacing, proxy=proxy, command=command))
    return ops


def run_kv_workload(
    factory: ProcessFactory,
    n: int,
    ops: Sequence[ClientOp],
    until: float,
    latency: Optional[LatencyModel] = None,
    crashes: Optional[CrashPlan] = None,
) -> WorkloadOutcome:
    """Inject *ops*, run to *until*, and collect per-command latencies."""
    simulation = Simulation(
        factory,
        n,
        latency=latency if latency is not None else FixedLatency(1.0),
        crashes=crashes,
    )
    for op in sorted(ops, key=lambda o: o.time):
        simulation.inject(op.time, op.proxy, SubmitCommand(op.command))
    simulation.run(until=until)
    outcome = WorkloadOutcome(simulation=simulation, ops=list(ops))
    for op in ops:
        proxy: SMRReplica = simulation.processes[op.proxy]  # type: ignore[assignment]
        command_id = op.command.command_id
        latency_value = proxy.commit_latency(command_id)
        if latency_value is None:
            outcome.unfinished.append(command_id)
            continue
        outcome.commit_latency[command_id] = latency_value
        if command_id in proxy.results:
            result, applied_at = proxy.results[command_id]
            outcome.results[command_id] = result
            outcome.apply_latency[command_id] = (
                applied_at - proxy.submissions[command_id]
            )
    return outcome


def check_logs_consistent(replicas: Sequence[SMRReplica]) -> List[Violation]:
    """Replicated-log safety: no two replicas disagree on any slot.

    Also checks that the applied prefixes produce identical stores up to
    the shortest applied length (state-machine safety).
    """
    violations: List[Violation] = []
    for slot in sorted({s for replica in replicas for s in replica.decided}):
        values = {}
        for replica in replicas:
            if slot in replica.decided:
                values.setdefault(replica.decided[slot].command_id, []).append(
                    replica.pid
                )
        if len(values) > 1:
            detail = "; ".join(
                f"{cmd} at {pids}" for cmd, pids in sorted(values.items())
            )
            violations.append(
                Violation("log-agreement", f"slot {slot} diverges: {detail}")
            )

    # Prefix check over the *applied command log*, not the decided map:
    # durable replicas truncate decided slots below their snapshot
    # frontier, but the applied log is the convergence witness and is
    # never truncated in memory.
    min_applied = min((len(replica.store.log) for replica in replicas), default=0)
    reference = None
    for replica in replicas:
        prefix = [c.command_id for c in replica.store.log[:min_applied]]
        if reference is None:
            reference = (replica.pid, prefix)
        elif prefix != reference[1]:
            violations.append(
                Violation(
                    "log-prefix",
                    f"replica {replica.pid} applied prefix differs from "
                    f"replica {reference[0]}",
                )
            )
    return violations
