"""Fast Paxos (Lamport 2006a): the classical fast baseline.

Fast Paxos decides in two message delays under up to ``e`` failures by
letting proposers bypass the leader on the *fast ballot* (ballot 0, which
is implicitly pre-opened for any value): every process broadcasts its
proposal, every acceptor votes for the first proposal it receives, votes
go to all learners, and a learner decides once some value gathers a fast
quorum of ``n - e`` votes. Recovery from a collided fast ballot uses the
classic phase 1 plus Lamport's O4 picking rule: any value with at least
``n - e - f`` ballot-0 votes inside the 1B quorum might have been chosen
and must be proposed; with ``n >= 2e + f + 1`` such a value is unique.

That requirement — ``max{2e+f+1, 2f+1}`` processes — is precisely
Lamport's lower bound, and the gap to Figure 1's ``max{2e+f, 2f+1}``
(task) / ``max{2e+f-1, 2f+1}`` (object) is the paper's whole point. Fast
Paxos's acceptors vote *first come first served* and its fast votes must
reach a learner quorum; Figure 1's value-ordered acceptance and
proposer-exclusion recovery are what buy the smaller system.

As with the other protocols, every process plays proposer, acceptor, and
learner, and new ballots follow the §C.1 nomination discipline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Set, Tuple

from ..core.errors import ConfigurationError
from ..core.messages import Message
from ..core.process import Context, Process, ProcessFactory, ProcessId
from ..core.quorums import (
    classic_quorum_size,
    fast_quorum_size,
    recovery_threshold,
    validate_resilience,
)
from ..core.values import BOTTOM, MaybeValue, is_bottom
from ..omega import OmegaFactory, OmegaService, StaticOmega

#: The message-delay bound ``Δ`` the ballot timers are set in.
DELTA = 1.0
BALLOT_TIMER = "fastpaxos:new_ballot"


@dataclass(frozen=True)
class FProposal(Message):
    """A proposal broadcast to all acceptors on the fast ballot."""

    value: MaybeValue


@dataclass(frozen=True)
class F1A(Message):
    ballot: int


@dataclass(frozen=True)
class F1B(Message):
    ballot: int
    vbal: int
    value: MaybeValue


@dataclass(frozen=True)
class F2A(Message):
    ballot: int
    value: MaybeValue


@dataclass(frozen=True)
class F2B(Message):
    """A vote; ballot-0 votes go to every learner, slow votes likewise."""

    ballot: int
    value: MaybeValue


@dataclass(frozen=True)
class FDecide(Message):
    value: MaybeValue


def fast_paxos_min_processes(f: int, e: int) -> int:
    """Lamport's bound: ``max{2e + f + 1, 2f + 1}``."""
    return max(2 * e + f + 1, 2 * f + 1)


class FastPaxosProcess(Process):
    """One Fast Paxos participant playing all roles."""

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        f: int,
        e: int,
        proposal: MaybeValue,
        omega: Optional[OmegaService] = None,
        enforce_bound: bool = True,
    ) -> None:
        super().__init__(pid, n)
        if enforce_bound:
            validate_resilience(n, f, e)
            if n < fast_paxos_min_processes(f, e):
                raise ConfigurationError(
                    f"Fast Paxos needs n >= {fast_paxos_min_processes(f, e)} "
                    f"(f={f}, e={e}); got n={n}"
                )
        if is_bottom(proposal):
            raise ConfigurationError("Fast Paxos requires a proposal at every process")
        self.f = f
        self.e = e
        self.proposal = proposal
        self.omega = omega if omega is not None else StaticOmega(0)

        self.bal = 0
        self.vbal = -1  # -1: never voted; 0 is the fast ballot
        self.vval: MaybeValue = BOTTOM
        self.decided: MaybeValue = BOTTOM
        self._votes: Dict[Tuple[int, MaybeValue], Set[ProcessId]] = {}
        self._oneb: Dict[int, Dict[ProcessId, Tuple[int, MaybeValue]]] = {}
        self._opened: Set[int] = set()

    # ------------------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self.omega.on_start(ctx)
        ctx.set_timer(BALLOT_TIMER, 2 * DELTA)
        # Fast ballot: the proposal goes to every acceptor, self included —
        # a process does NOT pre-vote its own value; it votes for whichever
        # proposal reaches it first, like any other acceptor. (This
        # first-come discipline is what Figure 1 replaces with value order.)
        ctx.broadcast(FProposal(self.proposal), include_self=True)

    def on_message(self, ctx: Context, sender: ProcessId, message: Message) -> None:
        if self.omega.handle_message(ctx, sender, message):
            return
        if isinstance(message, FProposal):
            self._on_proposal(ctx, sender, message)
        elif isinstance(message, F1A):
            self._on_f1a(ctx, sender, message)
        elif isinstance(message, F1B):
            self._on_f1b(ctx, sender, message)
        elif isinstance(message, F2A):
            self._on_f2a(ctx, sender, message)
        elif isinstance(message, F2B):
            self._on_f2b(ctx, sender, message)
        elif isinstance(message, FDecide):
            self._learn(ctx, message.value)

    def on_timer(self, ctx: Context, name: str) -> None:
        if self.omega.handle_timer(ctx, name):
            return
        if name != BALLOT_TIMER or not is_bottom(self.decided):
            return
        ctx.set_timer(BALLOT_TIMER, 5 * DELTA)
        if self.omega.leader(ctx.now) == self.pid:
            ballot = self._next_owned_ballot()
            ctx.broadcast(F1A(ballot), include_self=True)

    # ------------------------------------------------------------------
    # Fast ballot.
    # ------------------------------------------------------------------

    def _on_proposal(self, ctx: Context, sender: ProcessId, message: FProposal) -> None:
        if self.bal != 0 or self.vbal >= 0:
            return  # moved on, or already voted on the fast ballot
        self.vbal = 0
        self.vval = message.value
        # Votes go to every learner; count the local one without a message.
        self._register_vote(ctx, self.pid, 0, message.value)
        for dst in ctx.others:
            ctx.send(dst, F2B(0, message.value))

    # ------------------------------------------------------------------
    # Recovery (slow ballots).
    # ------------------------------------------------------------------

    def _next_owned_ballot(self) -> int:
        ballot = (self.bal // self.n) * self.n + self.pid
        while ballot <= self.bal:
            ballot += self.n
        return ballot

    def _on_f1a(self, ctx: Context, sender: ProcessId, message: F1A) -> None:
        if message.ballot <= self.bal:
            return
        self.bal = message.ballot
        ctx.send(sender, F1B(message.ballot, self.vbal, self.vval))

    def _on_f1b(self, ctx: Context, sender: ProcessId, message: F1B) -> None:
        if message.ballot % self.n != self.pid or message.ballot in self._opened:
            return
        reports = self._oneb.setdefault(message.ballot, {})
        reports[sender] = (message.vbal, message.value)
        quorum = classic_quorum_size(self.n, self.f)
        if len(reports) < quorum:
            return
        self._opened.add(message.ballot)
        frozen = list(reports.values())[:quorum]
        value = self._pick_value(frozen)
        ctx.broadcast(F2A(message.ballot, value), include_self=True)

    def _pick_value(self, reports) -> MaybeValue:
        """Lamport's O4 rule over a 1B quorum."""
        vbal_max = max(vbal for vbal, _ in reports)
        if vbal_max > 0:
            # A slow-ballot vote: unique value, as in classic Paxos.
            return max(v for vbal, v in reports if vbal == vbal_max)
        if vbal_max == 0:
            # Fast-ballot votes: any value with >= n - e - f votes may have
            # been chosen; with n >= 2e + f + 1 at most one such exists.
            counts: Dict[MaybeValue, int] = {}
            for vbal, v in reports:
                if vbal == 0:
                    counts[v] = counts.get(v, 0) + 1
            threshold = recovery_threshold(self.n, self.f, self.e)
            candidates = [v for v, c in counts.items() if c >= threshold]
            if candidates:
                return max(candidates)
        return self.proposal  # free choice

    def _on_f2a(self, ctx: Context, sender: ProcessId, message: F2A) -> None:
        if message.ballot < self.bal:
            return
        self.bal = message.ballot
        self.vbal = message.ballot
        self.vval = message.value
        self._register_vote(ctx, self.pid, message.ballot, message.value)
        for dst in ctx.others:
            ctx.send(dst, F2B(message.ballot, message.value))

    # ------------------------------------------------------------------
    # Learning.
    # ------------------------------------------------------------------

    def _on_f2b(self, ctx: Context, sender: ProcessId, message: F2B) -> None:
        self._register_vote(ctx, sender, message.ballot, message.value)

    def _register_vote(
        self, ctx: Context, voter: ProcessId, ballot: int, value: MaybeValue
    ) -> None:
        voters = self._votes.setdefault((ballot, value), set())
        voters.add(voter)
        if not is_bottom(self.decided):
            return
        needed = (
            fast_quorum_size(self.n, self.e)
            if ballot == 0
            else classic_quorum_size(self.n, self.f)
        )
        if len(voters) >= needed:
            self.decided = value
            ctx.decide(value)
            ctx.cancel_timer(BALLOT_TIMER)
            ctx.broadcast(FDecide(value), include_self=False)

    def _learn(self, ctx: Context, value: MaybeValue) -> None:
        if not is_bottom(self.decided):
            return
        self.decided = value
        ctx.decide(value)
        ctx.cancel_timer(BALLOT_TIMER)


def fast_paxos_factory(
    proposals: Mapping[ProcessId, MaybeValue],
    f: int,
    e: int,
    omega_factory: Optional[OmegaFactory] = None,
    enforce_bound: bool = True,
) -> ProcessFactory:
    """Factory for a Fast Paxos system with the given initial configuration."""

    def build(pid: ProcessId, n: int) -> FastPaxosProcess:
        if pid not in proposals:
            raise ConfigurationError(f"no proposal supplied for process {pid}")
        omega = omega_factory(pid, n) if omega_factory is not None else None
        return FastPaxosProcess(
            pid,
            n,
            f,
            e,
            proposals[pid],
            omega=omega,
            enforce_bound=enforce_bound,
        )

    return build
