"""An EPaxos-style leaderless replica (Moraru et al., SOSP 2013).

Every replica leads its own instance space ``(replica, slot)``. A command
submitted to replica ``L`` is pre-accepted with the interference
dependencies and sequence number ``L`` knows; if a fast quorum of
``n - e`` replicas (``L`` included, ``e = ceil((f+1)/2)``) answers without
enlarging them, ``L`` commits after **two message delays** — the
observation that motivates the paper: at ``n = 2f + 1`` this yields a
protocol that is fast under ``e = ceil((f+1)/2)`` failures even though
Lamport's bound would demand ``2e + f + 1`` processes. (The resolution:
EPaxos implements consensus as an *object* — replicas that have no command
of their own to propose never insist on their "input" — and the paper's
Theorem 6 bound ``2e + f - 1`` is exactly ``2f + 1`` at this ``e`` for odd
``f``.)

When replies do enlarge the attributes (interference discovered
elsewhere), the leader merges them and falls back to a Paxos-like Accept
round — commit in four delays. Committed instances execute in dependency
order (SCCs in reverse topological order, by sequence number within;
see :mod:`repro.protocols.epaxos.deps`) against a key-value store.

Recovery follows the published explicit-prepare rule on a per-instance
ballot: a replica that sees an instance linger uncommitted prepares it at
a higher ballot, collects a classic quorum of state reports, and commits /
re-accepts / re-pre-accepts / no-ops according to the strongest state
reported. Recovery pre-accepts never use the fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from ...core.errors import ConfigurationError
from ...core.messages import Message
from ...core.process import Context, Process, ProcessFactory, ProcessId
from .deps import CommittedInstance, InstanceId, dependencies_closed, execution_order
from .messages import (
    NOOP,
    Accept,
    AcceptOK,
    Command,
    Commit,
    PreAccept,
    PreAcceptOK,
    Prepare,
    PrepareOK,
    Request,
)

TICK_TIMER = "epaxos:tick"

STATUS_NONE = "none"
STATUS_PREACCEPTED = "preaccepted"
STATUS_ACCEPTED = "accepted"
STATUS_COMMITTED = "committed"
STATUS_EXECUTED = "executed"


def epaxos_fast_quorum(n: int, f: int) -> int:
    """Fast quorum size including the leader: ``f + floor((f+1)/2)``.

    Equivalently ``n - e`` with ``e = ceil((f+1)/2)`` at ``n = 2f + 1``.
    """
    return f + (f + 1) // 2


@dataclass
class InstanceState:
    """Everything a replica knows about one instance."""

    instance: InstanceId
    command: Optional[Command] = None
    seq: int = 0
    deps: FrozenSet[InstanceId] = frozenset()
    status: str = STATUS_NONE
    ballot: int = 0  # highest ballot seen for this instance
    vballot: int = 0  # ballot at which current attributes were adopted
    committed_at: Optional[float] = None
    executed_at: Optional[float] = None
    last_activity: float = 0.0
    # Leader / recoverer bookkeeping (per ballot).
    preaccept_replies: Dict[ProcessId, PreAcceptOK] = field(default_factory=dict)
    accept_oks: Set[ProcessId] = field(default_factory=set)
    prepare_oks: Dict[ProcessId, PrepareOK] = field(default_factory=dict)
    leading_ballot: Optional[int] = None  # ballot this replica is driving


class EPaxosReplica(Process):
    """One EPaxos replica; also the key-value state machine it executes."""

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        f: int,
        delta: float = 1.0,
    ) -> None:
        super().__init__(pid, n)
        if n < 2 * f + 1:
            raise ConfigurationError(f"EPaxos needs n >= 2f+1; got n={n}, f={f}")
        if delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {delta}")
        self.f = f
        self.delta = delta
        self.fast_quorum = epaxos_fast_quorum(n, f)
        if not 1 <= self.fast_quorum <= n:
            raise ConfigurationError(f"fast quorum {self.fast_quorum} out of range")
        self.slow_quorum = n - f

        self.instances: Dict[InstanceId, InstanceState] = {}
        self.next_slot = 0
        self._conflict_index: Dict[str, Set[InstanceId]] = {}
        # The executed state machine.
        self.store: Dict[str, Any] = {}
        self.results: Dict[str, Any] = {}
        self.execution_log: List[InstanceId] = []

    # ------------------------------------------------------------------
    # Activations.
    # ------------------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        ctx.set_timer(TICK_TIMER, 3 * self.delta)

    def on_timer(self, ctx: Context, name: str) -> None:
        if name != TICK_TIMER:
            return
        ctx.set_timer(TICK_TIMER, 3 * self.delta)
        self._recovery_scan(ctx)

    def on_message(self, ctx: Context, sender: ProcessId, message: Message) -> None:
        if isinstance(message, Request):
            self.lead_command(ctx, message.command)
        elif isinstance(message, PreAccept):
            self._on_preaccept(ctx, sender, message)
        elif isinstance(message, PreAcceptOK):
            self._on_preaccept_ok(ctx, sender, message)
        elif isinstance(message, Accept):
            self._on_accept(ctx, sender, message)
        elif isinstance(message, AcceptOK):
            self._on_accept_ok(ctx, sender, message)
        elif isinstance(message, Commit):
            self._on_commit(ctx, message)
        elif isinstance(message, Prepare):
            self._on_prepare(ctx, sender, message)
        elif isinstance(message, PrepareOK):
            self._on_prepare_ok(ctx, sender, message)

    # ------------------------------------------------------------------
    # Leading a command (fast path).
    # ------------------------------------------------------------------

    def lead_command(self, ctx: Context, command: Command) -> InstanceId:
        """Start consensus on *command* with this replica as leader."""
        instance = (self.pid, self.next_slot)
        self.next_slot += 1
        deps = self._interference(command, exclude=instance)
        seq = 1 + max(
            (self.instances[d].seq for d in deps if d in self.instances), default=0
        )
        state = self._state(instance)
        state.command = command
        state.seq = seq
        state.deps = deps
        state.status = STATUS_PREACCEPTED
        state.leading_ballot = 0
        state.last_activity = ctx.now
        self._index(instance, command)
        ctx.broadcast(PreAccept(instance, 0, command, seq, deps), include_self=False)
        return instance

    def _on_preaccept(self, ctx: Context, sender: ProcessId, message: PreAccept) -> None:
        state = self._state(message.instance)
        if message.ballot < state.ballot or state.status in (
            STATUS_COMMITTED,
            STATUS_EXECUTED,
        ):
            return
        merged_deps = set(message.deps) | set(
            self._interference(message.command, exclude=message.instance)
        )
        merged_seq = max(
            message.seq,
            1
            + max(
                (
                    self.instances[d].seq
                    for d in merged_deps
                    if d in self.instances
                ),
                default=0,
            ),
        )
        state.ballot = message.ballot
        state.vballot = message.ballot
        state.command = message.command
        state.seq = merged_seq
        state.deps = frozenset(merged_deps)
        state.status = STATUS_PREACCEPTED
        state.last_activity = ctx.now
        self._index(message.instance, message.command)
        changed = merged_seq != message.seq or frozenset(merged_deps) != message.deps
        ctx.send(
            sender,
            PreAcceptOK(
                message.instance,
                message.ballot,
                merged_seq,
                frozenset(merged_deps),
                changed,
            ),
        )

    def _on_preaccept_ok(
        self, ctx: Context, sender: ProcessId, message: PreAcceptOK
    ) -> None:
        state = self._state(message.instance)
        if (
            state.leading_ballot != message.ballot
            or state.status != STATUS_PREACCEPTED
        ):
            return
        state.preaccept_replies[sender] = message
        replies = state.preaccept_replies
        unchanged = sum(1 for reply in replies.values() if not reply.changed)
        if message.ballot == 0 and unchanged >= self.fast_quorum - 1:
            # Fast path: a fast quorum (leader included) agrees on the
            # original attributes — commit after two message delays.
            self._commit(ctx, state)
            return
        remaining = (self.n - 1) - len(replies)
        fast_still_possible = (
            message.ballot == 0 and unchanged + remaining >= self.fast_quorum - 1
        )
        if fast_still_possible:
            return  # wait: enough unchanged replies may yet arrive
        if len(replies) >= self.slow_quorum - 1:
            self._merge_and_accept(ctx, state)

    def _merge_and_accept(self, ctx: Context, state: InstanceState) -> None:
        """Slow path: adopt the union of everything the repliers saw."""
        merged_deps = set(state.deps)
        merged_seq = state.seq
        for reply in state.preaccept_replies.values():
            merged_deps |= set(reply.deps)
            merged_seq = max(merged_seq, reply.seq)
        state.deps = frozenset(merged_deps)
        state.seq = merged_seq
        self._start_accept(ctx, state)

    def _start_accept(self, ctx: Context, state: InstanceState) -> None:
        state.status = STATUS_ACCEPTED
        ballot = state.leading_ballot if state.leading_ballot is not None else 0
        state.vballot = ballot
        state.accept_oks = {self.pid}
        state.last_activity = ctx.now
        if self.slow_quorum <= 1:
            self._commit(ctx, state)
            return
        ctx.broadcast(
            Accept(state.instance, ballot, state.command, state.seq, state.deps),
            include_self=False,
        )

    def _on_accept(self, ctx: Context, sender: ProcessId, message: Accept) -> None:
        state = self._state(message.instance)
        if message.ballot < state.ballot or state.status in (
            STATUS_COMMITTED,
            STATUS_EXECUTED,
        ):
            return
        state.ballot = message.ballot
        state.vballot = message.ballot
        state.command = message.command
        state.seq = message.seq
        state.deps = message.deps
        state.status = STATUS_ACCEPTED
        state.last_activity = ctx.now
        self._index(message.instance, message.command)
        ctx.send(sender, AcceptOK(message.instance, message.ballot))

    def _on_accept_ok(self, ctx: Context, sender: ProcessId, message: AcceptOK) -> None:
        state = self._state(message.instance)
        if state.leading_ballot != message.ballot or state.status != STATUS_ACCEPTED:
            return
        state.accept_oks.add(sender)
        if len(state.accept_oks) >= self.slow_quorum:
            self._commit(ctx, state)

    # ------------------------------------------------------------------
    # Committing and executing.
    # ------------------------------------------------------------------

    def _commit(self, ctx: Context, state: InstanceState) -> None:
        if state.status in (STATUS_COMMITTED, STATUS_EXECUTED):
            return
        state.status = STATUS_COMMITTED
        state.committed_at = ctx.now
        state.last_activity = ctx.now
        ctx.broadcast(
            Commit(state.instance, state.command, state.seq, state.deps),
            include_self=False,
        )
        self._try_execute(ctx)

    def _on_commit(self, ctx: Context, message: Commit) -> None:
        state = self._state(message.instance)
        if state.status == STATUS_EXECUTED:
            return
        state.command = message.command
        state.seq = message.seq
        state.deps = message.deps
        state.status = STATUS_COMMITTED
        if state.committed_at is None:
            state.committed_at = ctx.now
        state.last_activity = ctx.now
        self._index(message.instance, message.command)
        self._try_execute(ctx)

    def _try_execute(self, ctx: Context) -> None:
        """Execute every committed instance whose dependency closure is."""
        committed: Dict[InstanceId, CommittedInstance] = {
            iid: CommittedInstance(iid, st.seq, frozenset(st.deps))
            for iid, st in self.instances.items()
            if st.status in (STATUS_COMMITTED, STATUS_EXECUTED)
        }
        ready = [
            iid
            for iid, st in self.instances.items()
            if st.status == STATUS_COMMITTED
            and dependencies_closed(committed, [iid])
        ]
        if not ready:
            return
        closure: Set[InstanceId] = set()
        frontier = list(ready)
        while frontier:
            iid = frontier.pop()
            if iid in closure:
                continue
            closure.add(iid)
            frontier.extend(committed[iid].deps)
        order = execution_order([committed[iid] for iid in closure])
        for iid in order:
            state = self.instances[iid]
            if state.status != STATUS_COMMITTED:
                continue  # already executed earlier
            self._apply(state)
            state.status = STATUS_EXECUTED
            state.executed_at = ctx.now
            self.execution_log.append(iid)

    def _apply(self, state: InstanceState) -> None:
        command = state.command
        if command is None or command.command_id == NOOP.command_id:
            return
        if command.op == "put":
            self.store[command.key] = command.value
            self.results[command.command_id] = command.value
        else:
            self.results[command.command_id] = self.store.get(command.key)

    # ------------------------------------------------------------------
    # Recovery.
    # ------------------------------------------------------------------

    def _recovery_scan(self, ctx: Context) -> None:
        for iid, state in list(self.instances.items()):
            if state.status not in (STATUS_PREACCEPTED, STATUS_ACCEPTED):
                continue
            stale_for = ctx.now - state.last_activity
            if stale_for < 4 * self.delta:
                continue
            if (
                state.leading_ballot is not None
                and state.status == STATUS_PREACCEPTED
                and len(state.preaccept_replies) >= self.slow_quorum - 1
            ):
                # I am driving this instance and a classic quorum has
                # answered, but the fast path never completed (crashed
                # repliers): give up on it and finish on the slow path.
                self._merge_and_accept(ctx, state)
                continue
            # Deterministic round-robin initiator to avoid duels: the k-th
            # stale period hands the instance to leader + k (mod n).
            periods = int(stale_for // (3 * self.delta))
            initiator = (iid[0] + periods) % self.n
            if initiator != self.pid:
                continue
            self._start_prepare(ctx, state)

    def _start_prepare(self, ctx: Context, state: InstanceState) -> None:
        ballot = state.ballot + 1
        while ballot % self.n != self.pid:
            ballot += 1
        state.ballot = ballot
        state.leading_ballot = ballot
        state.prepare_oks = {}
        state.last_activity = ctx.now
        # Local reply first, then solicit the others.
        state.prepare_oks[self.pid] = PrepareOK(
            state.instance,
            ballot,
            state.status,
            state.command,
            state.seq,
            state.deps,
            state.vballot,
            was_leader_reply=(self.pid == state.instance[0]),
        )
        ctx.broadcast(Prepare(state.instance, ballot), include_self=False)

    def _on_prepare(self, ctx: Context, sender: ProcessId, message: Prepare) -> None:
        state = self._state(message.instance)
        if message.ballot <= state.ballot:
            return
        state.ballot = message.ballot
        ctx.send(
            sender,
            PrepareOK(
                message.instance,
                message.ballot,
                state.status
                if state.status != STATUS_EXECUTED
                else STATUS_COMMITTED,
                state.command,
                state.seq,
                state.deps,
                state.vballot,
                was_leader_reply=(self.pid == message.instance[0]),
            ),
        )

    def _on_prepare_ok(self, ctx: Context, sender: ProcessId, message: PrepareOK) -> None:
        state = self._state(message.instance)
        if state.leading_ballot != message.ballot:
            return
        state.prepare_oks[sender] = message
        if len(state.prepare_oks) < self.slow_quorum:
            return
        replies = list(state.prepare_oks.values())
        state.leading_ballot = message.ballot  # continue driving this ballot

        committed = [r for r in replies if r.status == STATUS_COMMITTED]
        if committed:
            best = committed[0]
            state.command = best.command
            state.seq = best.seq
            state.deps = best.deps
            self._commit(ctx, state)
            return

        accepted = [r for r in replies if r.status == STATUS_ACCEPTED]
        if accepted:
            best = max(accepted, key=lambda r: r.vballot)
            state.command = best.command
            state.seq = best.seq
            state.deps = best.deps
            self._start_accept(ctx, state)
            return

        preaccepted = [r for r in replies if r.status == STATUS_PREACCEPTED]
        if preaccepted:
            # The published rule: enough matching pre-accepts from replicas
            # other than the original leader mean the fast path may have
            # committed — re-run Accept with those attributes.
            groups: Dict[Tuple[int, FrozenSet[InstanceId]], List[PrepareOK]] = {}
            for reply in preaccepted:
                if reply.was_leader_reply:
                    continue
                groups.setdefault((reply.seq, reply.deps), []).append(reply)
            threshold = self.n // 2
            for (seq, deps), group in sorted(
                groups.items(), key=lambda kv: -len(kv[1])
            ):
                if len(group) >= threshold:
                    state.command = group[0].command
                    state.seq = seq
                    state.deps = deps
                    self._start_accept(ctx, state)
                    return
            # Otherwise restart the protocol for the known command, without
            # the fast path (recovery ballot > 0).
            best = preaccepted[0]
            state.command = best.command
            state.seq = best.seq
            state.deps = best.deps
            state.status = STATUS_PREACCEPTED
            state.preaccept_replies = {}
            ctx.broadcast(
                PreAccept(
                    state.instance,
                    message.ballot,
                    state.command,
                    state.seq,
                    state.deps,
                ),
                include_self=False,
            )
            return

        # Nobody knows anything: the instance never left its leader.
        state.command = NOOP
        state.seq = 0
        state.deps = frozenset()
        self._start_accept(ctx, state)

    # ------------------------------------------------------------------
    # Bookkeeping.
    # ------------------------------------------------------------------

    def _state(self, instance: InstanceId) -> InstanceState:
        if instance not in self.instances:
            self.instances[instance] = InstanceState(instance=instance)
        return self.instances[instance]

    def _interference(self, command: Command, exclude: InstanceId) -> FrozenSet[InstanceId]:
        candidates = self._conflict_index.get(command.key, set())
        deps = set()
        for iid in candidates:
            if iid == exclude:
                continue
            other = self.instances.get(iid)
            if other is not None and other.command is not None:
                if other.command.conflicts_with(command):
                    deps.add(iid)
        return frozenset(deps)

    def _index(self, instance: InstanceId, command: Optional[Command]) -> None:
        if command is None or not command.key:
            return
        self._conflict_index.setdefault(command.key, set()).add(instance)

    # ------------------------------------------------------------------
    # Introspection used by harnesses and benchmarks.
    # ------------------------------------------------------------------

    def commit_latency(self, instance: InstanceId, submitted_at: float) -> Optional[float]:
        state = self.instances.get(instance)
        if state is None or state.committed_at is None:
            return None
        return state.committed_at - submitted_at


def epaxos_factory(f: int, delta: float = 1.0) -> ProcessFactory:
    """Factory for an EPaxos cluster."""

    def build(pid: ProcessId, n: int) -> EPaxosReplica:
        return EPaxosReplica(pid, n, f, delta=delta)

    return build
