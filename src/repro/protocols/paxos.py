"""Single-decree Paxos: the leader-driven baseline.

Paxos solves partially synchronous consensus with the optimal ``2f + 1``
processes, but its latency hinges on the leader: with the initial leader
(process 0, owner of ballot 0) correct and the system synchronous, the
leader decides at ``2Δ`` (its phase 1 for ballot 0 is vacuous, so it opens
directly with a ``2A``); everyone else at ``3Δ``. If the initial leader
crashes, nothing can be decided before a view change, so — as §2 of the
paper observes — *Paxos is not e-two-step for any e > 0*: an E-faulty
synchronous run with ``0 ∈ E`` has no process deciding by ``2Δ``. The E3
experiment demonstrates exactly this.

The implementation is the textbook protocol plus the §C.1 nomination
discipline shared with Figure 1: a ``2Δ``-then-``5Δ`` timer, and only the
process Ω names may open a new ballot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Set, Tuple

from ..core.errors import ConfigurationError
from ..core.messages import Message
from ..core.process import Context, Process, ProcessFactory, ProcessId
from ..core.quorums import classic_quorum_size, validate_resilience
from ..core.values import BOTTOM, MaybeValue, is_bottom
from ..omega import OmegaFactory, OmegaService, StaticOmega

#: The message-delay bound ``Δ`` the ballot timers are set in.
DELTA = 1.0
BALLOT_TIMER = "paxos:new_ballot"


@dataclass(frozen=True)
class P1A(Message):
    ballot: int


@dataclass(frozen=True)
class P1B(Message):
    ballot: int
    vbal: int
    value: MaybeValue


@dataclass(frozen=True)
class P2A(Message):
    ballot: int
    value: MaybeValue


@dataclass(frozen=True)
class P2B(Message):
    ballot: int
    value: MaybeValue


@dataclass(frozen=True)
class PDecide(Message):
    value: MaybeValue


class PaxosProcess(Process):
    """One Paxos participant playing all three roles.

    Every process is an acceptor and a learner; the owner of the current
    ballot (``ballot ≡ pid mod n``) acts as leader. Ballot 0 belongs to
    process 0 and skips phase 1 — with no lower ballot in existence, the
    empty 1B quorum is implied.
    """

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        f: int,
        proposal: MaybeValue,
        omega: Optional[OmegaService] = None,
    ) -> None:
        super().__init__(pid, n)
        validate_resilience(n, f, 0)
        if is_bottom(proposal):
            raise ConfigurationError("Paxos requires a proposal at every process")
        self.f = f
        self.proposal = proposal
        self.omega = omega if omega is not None else StaticOmega(0)

        self.bal = 0  # highest ballot joined
        self.vbal = -1  # ballot of the last vote (-1: never voted)
        self.vval: MaybeValue = BOTTOM
        self.decided: MaybeValue = BOTTOM
        self._oneb: Dict[int, Dict[ProcessId, Tuple[int, MaybeValue]]] = {}
        self._votes: Dict[Tuple[int, MaybeValue], Set[ProcessId]] = {}
        self._opened: Set[int] = set()

    # ------------------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self.omega.on_start(ctx)
        ctx.set_timer(BALLOT_TIMER, 2 * DELTA)
        if self.pid == 0:
            # Initial leader: ballot 0 opens without a phase 1.
            self._opened.add(0)
            ctx.broadcast(P2A(0, self.proposal), include_self=True)

    def on_message(self, ctx: Context, sender: ProcessId, message: Message) -> None:
        if self.omega.handle_message(ctx, sender, message):
            return
        if isinstance(message, P1A):
            self._on_p1a(ctx, sender, message)
        elif isinstance(message, P1B):
            self._on_p1b(ctx, sender, message)
        elif isinstance(message, P2A):
            self._on_p2a(ctx, sender, message)
        elif isinstance(message, P2B):
            self._on_p2b(ctx, sender, message)
        elif isinstance(message, PDecide):
            self._learn(ctx, message.value)

    def on_timer(self, ctx: Context, name: str) -> None:
        if self.omega.handle_timer(ctx, name):
            return
        if name != BALLOT_TIMER or not is_bottom(self.decided):
            return
        ctx.set_timer(BALLOT_TIMER, 5 * DELTA)
        if self.omega.leader(ctx.now) == self.pid:
            ballot = self._next_owned_ballot()
            ctx.broadcast(P1A(ballot), include_self=True)

    # ------------------------------------------------------------------

    def _next_owned_ballot(self) -> int:
        ballot = (self.bal // self.n) * self.n + self.pid
        while ballot <= self.bal:
            ballot += self.n
        return ballot

    def _on_p1a(self, ctx: Context, sender: ProcessId, message: P1A) -> None:
        if message.ballot <= self.bal:
            return
        self.bal = message.ballot
        ctx.send(sender, P1B(message.ballot, self.vbal, self.vval))

    def _on_p1b(self, ctx: Context, sender: ProcessId, message: P1B) -> None:
        if message.ballot % self.n != self.pid or message.ballot in self._opened:
            return
        reports = self._oneb.setdefault(message.ballot, {})
        reports[sender] = (message.vbal, message.value)
        if len(reports) < classic_quorum_size(self.n, self.f):
            return
        self._opened.add(message.ballot)
        vbal_max = max(vbal for vbal, _ in reports.values())
        if vbal_max >= 0:
            value = max(v for vbal, v in reports.values() if vbal == vbal_max)
        else:
            value = self.proposal
        ctx.broadcast(P2A(message.ballot, value), include_self=True)

    def _on_p2a(self, ctx: Context, sender: ProcessId, message: P2A) -> None:
        if message.ballot < self.bal:
            return
        self.bal = message.ballot
        self.vbal = message.ballot
        self.vval = message.value
        # Votes go to every learner (the latency-optimal deployment
        # Lamport's two-message-delay observation assumes): each process
        # counts a classic quorum itself and decides at 2Δ when the
        # initial leader is correct. The local vote is registered without
        # a self-message.
        self._register_vote(ctx, self.pid, message.ballot, message.value)
        for dst in ctx.others:
            ctx.send(dst, P2B(message.ballot, message.value))

    def _on_p2b(self, ctx: Context, sender: ProcessId, message: P2B) -> None:
        self._register_vote(ctx, sender, message.ballot, message.value)

    def _register_vote(
        self, ctx: Context, voter: ProcessId, ballot: int, value: MaybeValue
    ) -> None:
        voters = self._votes.setdefault((ballot, value), set())
        voters.add(voter)
        if not is_bottom(self.decided):
            return
        if len(voters) >= classic_quorum_size(self.n, self.f):
            self._decide(ctx, value)

    def _decide(self, ctx: Context, value: MaybeValue) -> None:
        self.decided = value
        ctx.decide(value)
        ctx.cancel_timer(BALLOT_TIMER)
        ctx.broadcast(PDecide(value), include_self=False)

    def _learn(self, ctx: Context, value: MaybeValue) -> None:
        if not is_bottom(self.decided):
            return
        self.decided = value
        ctx.decide(value)
        ctx.cancel_timer(BALLOT_TIMER)


def paxos_factory(
    proposals: Mapping[ProcessId, MaybeValue],
    f: int,
    omega_factory: Optional[OmegaFactory] = None,
) -> ProcessFactory:
    """Factory for a Paxos system with the given initial configuration."""

    def build(pid: ProcessId, n: int) -> PaxosProcess:
        if pid not in proposals:
            raise ConfigurationError(f"no proposal supplied for process {pid}")
        omega = omega_factory(pid, n) if omega_factory is not None else None
        return PaxosProcess(pid, n, f, proposals[pid], omega=omega)

    return build
