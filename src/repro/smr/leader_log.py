"""Multi-Paxos-style SMR: the leader-forwarding baseline.

The conventional deployment the paper contrasts with: one stable leader
orders all commands. A client's proxy forwards the command to the Ω
leader; the leader assigns it the next log slot and runs a phase-2 round
(its initial ballot needs no phase 1); deciders learn via a per-slot
``Decide`` broadcast. The proxy answers its client when the decision
reaches it, so a remote proxy pays *forward hop + leader's quorum round
trip + notify hop* — exactly the analytic model in
:func:`repro.wan.deployment.predicted_commit_latency_paxos`, and the foil
for Figure 1's leaderless fast path in the E10 comparison.

View changes transfer per-slot state in ``L1B`` messages; the new leader
adopts the highest-ballot accepted command per slot, fills gaps with
no-ops, and re-proposes. Proxies re-forward their unacknowledged commands
to the new leader.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from ..core.errors import ConfigurationError
from ..core.messages import Message
from ..core.process import Context, Process, ProcessFactory, ProcessId
from ..core.quorums import classic_quorum_size, validate_resilience
from ..omega import OmegaFactory, OmegaService, StaticOmega
from .kvstore import KVCommand, KVStore
from .log import SubmitCommand

LEADER_TIMER = "mpaxos:leader"
RESEND_TIMER = "mpaxos:resend"

#: Gap filler decided by a recovering leader.
GAP_NOOP = KVCommand(op="noop", key="", command_id="__mpaxos-gap__")


@dataclass(frozen=True)
class LForward(Message):
    """Proxy-to-leader command forwarding."""

    command: KVCommand


@dataclass(frozen=True)
class L2A(Message):
    slot: int
    ballot: int
    command: KVCommand


@dataclass(frozen=True)
class L2B(Message):
    slot: int
    ballot: int


@dataclass(frozen=True)
class LDecide(Message):
    slot: int
    command: KVCommand


@dataclass(frozen=True)
class L1A(Message):
    ballot: int


@dataclass(frozen=True)
class L1B(Message):
    ballot: int
    # ((slot, vbal, command), ...) for every slot with an accepted value.
    accepted: Tuple[Tuple[int, int, KVCommand], ...]
    # ((slot, command), ...) for every slot known decided.
    decided: Tuple[Tuple[int, KVCommand], ...]


class MultiPaxosReplica(Process):
    """One replica of the leader-driven replicated KV service."""

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        f: int,
        delta: float = 1.0,
        omega: Optional[OmegaService] = None,
    ) -> None:
        super().__init__(pid, n)
        validate_resilience(n, f, 0)
        if delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {delta}")
        self.f = f
        self.delta = delta
        self.omega = omega if omega is not None else StaticOmega(0)

        self.ballot = 0  # highest ballot joined (0 owned by process 0)
        self.accepted: Dict[int, Tuple[int, KVCommand]] = {}  # slot -> (vbal, cmd)
        self.decided: Dict[int, KVCommand] = {}
        self.decide_times: Dict[int, float] = {}
        self.store = KVStore()
        self.applied_upto = 0

        # Leader bookkeeping.
        self._next_slot = 0
        self._slot_votes: Dict[Tuple[int, int], Set[ProcessId]] = {}
        self._oneb: Dict[int, Dict[ProcessId, L1B]] = {}
        self._leading = pid == 0  # ballot 0 pre-owned by process 0
        self._proposed_ids: Set[str] = set()  # in-flight at this leader

        # Proxy bookkeeping.
        self.submissions: Dict[str, float] = {}
        self.commit_times: Dict[str, float] = {}
        self.results: Dict[str, Tuple[object, float]] = {}
        self._pending: Dict[str, KVCommand] = {}

    # ------------------------------------------------------------------
    # Activations.
    # ------------------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self.omega.on_start(ctx)
        ctx.set_timer(LEADER_TIMER, 2 * self.delta)
        ctx.set_timer(RESEND_TIMER, 6 * self.delta)

    def on_message(self, ctx: Context, sender: ProcessId, message: Message) -> None:
        if self.omega.handle_message(ctx, sender, message):
            return
        if isinstance(message, SubmitCommand):
            self.submit(ctx, message.command)
        elif isinstance(message, LForward):
            self._on_forward(ctx, message.command)
        elif isinstance(message, L2A):
            self._on_l2a(ctx, sender, message)
        elif isinstance(message, L2B):
            self._on_l2b(ctx, sender, message)
        elif isinstance(message, LDecide):
            self._learn(ctx, message.slot, message.command)
        elif isinstance(message, L1A):
            self._on_l1a(ctx, sender, message)
        elif isinstance(message, L1B):
            self._on_l1b(ctx, sender, message)

    def on_timer(self, ctx: Context, name: str) -> None:
        if self.omega.handle_timer(ctx, name):
            return
        if name == LEADER_TIMER:
            ctx.set_timer(LEADER_TIMER, 5 * self.delta)
            if (
                self.omega.leader(ctx.now) == self.pid
                and not self._leading
            ):
                self._start_view_change(ctx)
            return
        if name == RESEND_TIMER:
            ctx.set_timer(RESEND_TIMER, 6 * self.delta)
            # Proxy retry: commands not yet decided go to the current leader.
            for command in list(self._pending.values()):
                if command.command_id not in self.commit_times:
                    self._route(ctx, command)

    # ------------------------------------------------------------------
    # Proxy role.
    # ------------------------------------------------------------------

    def submit(self, ctx: Context, command: KVCommand) -> None:
        if not command.command_id:
            raise ConfigurationError("commands need a unique command_id")
        self.submissions.setdefault(command.command_id, ctx.now)
        self._pending[command.command_id] = command
        self._route(ctx, command)

    def _route(self, ctx: Context, command: KVCommand) -> None:
        leader = self.omega.leader(ctx.now)
        if leader == self.pid:
            self._on_forward(ctx, command)
        else:
            ctx.send(leader, LForward(command))

    # ------------------------------------------------------------------
    # Leader role.
    # ------------------------------------------------------------------

    def _on_forward(self, ctx: Context, command: KVCommand) -> None:
        if not self._leading:
            # Not (yet) the leader: hold it; the resend timer at the proxy
            # will re-route if leadership never materializes here.
            self._pending.setdefault(command.command_id, command)
            return
        if any(cmd.command_id == command.command_id for cmd in self.decided.values()):
            return  # duplicate forward of something already ordered
        if command.command_id in self._proposed_ids:
            return  # already in flight in some slot under my leadership
        if any(
            cmd.command_id == command.command_id
            for _, cmd in self.accepted.values()
        ):
            return  # already in flight in some slot
        slot = self._next_slot
        self._next_slot += 1
        self._proposed_ids.add(command.command_id)
        ctx.broadcast(L2A(slot, self.ballot, command), include_self=True)

    def _on_l2a(self, ctx: Context, sender: ProcessId, message: L2A) -> None:
        if message.ballot < self.ballot or message.slot in self.decided:
            return
        self.ballot = message.ballot
        self.accepted[message.slot] = (message.ballot, message.command)
        ctx.send(sender, L2B(message.slot, message.ballot))

    def _on_l2b(self, ctx: Context, sender: ProcessId, message: L2B) -> None:
        if message.slot in self.decided:
            return
        voters = self._slot_votes.setdefault((message.slot, message.ballot), set())
        voters.add(sender)
        if len(voters) >= classic_quorum_size(self.n, self.f):
            entry = self.accepted.get(message.slot)
            if entry is None or entry[0] != message.ballot:
                return
            command = entry[1]
            self._learn(ctx, message.slot, command)
            ctx.broadcast(LDecide(message.slot, command), include_self=False)

    # ------------------------------------------------------------------
    # Learning and applying.
    # ------------------------------------------------------------------

    def _learn(self, ctx: Context, slot: int, command: KVCommand) -> None:
        if slot in self.decided:
            return
        self.decided[slot] = command
        self.decide_times[slot] = ctx.now
        if command.command_id:
            self.commit_times.setdefault(command.command_id, ctx.now)
            self._pending.pop(command.command_id, None)
        if self._leading:
            self._next_slot = max(self._next_slot, slot + 1)
        while self.applied_upto in self.decided:
            applied = self.decided[self.applied_upto]
            result = self.store.apply(applied)
            if applied.command_id in self.submissions:
                self.results.setdefault(applied.command_id, (result, ctx.now))
            self.applied_upto += 1

    # ------------------------------------------------------------------
    # View change.
    # ------------------------------------------------------------------

    def _next_owned_ballot(self) -> int:
        ballot = (self.ballot // self.n) * self.n + self.pid
        while ballot <= self.ballot:
            ballot += self.n
        return ballot

    def _start_view_change(self, ctx: Context) -> None:
        ballot = self._next_owned_ballot()
        ctx.broadcast(L1A(ballot), include_self=True)

    def _on_l1a(self, ctx: Context, sender: ProcessId, message: L1A) -> None:
        if message.ballot <= self.ballot:
            return
        self.ballot = message.ballot
        self._leading = False
        ctx.send(
            sender,
            L1B(
                message.ballot,
                accepted=tuple(
                    (slot, vbal, cmd) for slot, (vbal, cmd) in sorted(self.accepted.items())
                ),
                decided=tuple(sorted(self.decided.items())),
            ),
        )

    def _on_l1b(self, ctx: Context, sender: ProcessId, message: L1B) -> None:
        if message.ballot % self.n != self.pid or self.ballot > message.ballot:
            return
        reports = self._oneb.setdefault(message.ballot, {})
        reports[sender] = message
        if len(reports) < classic_quorum_size(self.n, self.f):
            return
        if self._leading and self.ballot == message.ballot:
            return  # already took over on this ballot
        self.ballot = message.ballot
        self._leading = True
        # Adopt everything decided anywhere, then the strongest accepted
        # command per undecided slot; fill gaps with no-ops.
        strongest: Dict[int, Tuple[int, KVCommand]] = {}
        for report in reports.values():
            for slot, command in report.decided:
                if slot not in self.decided:
                    self._learn(ctx, slot, command)
                    ctx.broadcast(LDecide(slot, command), include_self=False)
            for slot, vbal, command in report.accepted:
                if slot in self.decided:
                    continue
                current = strongest.get(slot)
                if current is None or vbal > current[0]:
                    strongest[slot] = (vbal, command)
        top = max(
            [slot for slot in strongest]
            + [slot for slot in self.decided]
            + [-1]
        )
        self._next_slot = top + 1
        for slot in range(0, top + 1):
            if slot in self.decided:
                continue
            _, command = strongest.get(slot, (0, GAP_NOOP))
            self._proposed_ids.add(command.command_id)
            ctx.broadcast(L2A(slot, message.ballot, command), include_self=True)
        # Re-propose my clients' unacknowledged commands under my ballot.
        for command in list(self._pending.values()):
            self._on_forward(ctx, command)

    # ------------------------------------------------------------------
    # Introspection (mirrors SMRReplica's).
    # ------------------------------------------------------------------

    def committed_log(self) -> Dict[int, KVCommand]:
        return dict(self.decided)

    def commit_latency(self, command_id: str) -> Optional[float]:
        if command_id not in self.submissions or command_id not in self.commit_times:
            return None
        return self.commit_times[command_id] - self.submissions[command_id]


def multipaxos_factory(
    f: int,
    delta: float = 1.0,
    omega_factory: Optional[OmegaFactory] = None,
) -> ProcessFactory:
    """Factory for the Multi-Paxos replicated KV service."""

    def build(pid: ProcessId, n: int) -> MultiPaxosReplica:
        omega = omega_factory(pid, n) if omega_factory is not None else None
        return MultiPaxosReplica(pid, n, f, delta=delta, omega=omega)

    return build
