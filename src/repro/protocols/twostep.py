"""The paper's protocol (Figure 1): e-two-step consensus, task and object.

The protocol is a descendant of Fast Paxos engineered to live at
``n = max{2e+f, 2f+1}`` (task) or ``n = max{2e+f-1, 2f+1}`` (object)
instead of Fast Paxos's ``max{2e+f+1, 2f+1}``. Its two ingredients:

* a **value-ordered fast path** — ballot 0 has no coordinator; every
  process broadcasts its input in a ``Propose`` message, and a process
  accepts a proposal only if it has not voted and the value is at least
  its own input (line 11). The process proposing the highest input among
  the live processes can therefore always assemble ``n - e`` fast votes
  (its own included) and decide at time ``2Δ``;
* a **recovery rule** (lines 43–63, :mod:`repro.protocols.selection`)
  that can recognize a fast decision from only ``n - f - e`` surviving
  votes, by first discarding the votes of proposals whose proposer sits
  inside the recovery quorum — such a proposer provably never completes
  the fast path.

The *object* variant adds the red lines: a process learns its input only
when ``propose(v)`` is invoked, and it refuses to fast-vote for any value
different from its own proposal once it has one (line 11, red conjunct).
That one refusal shaves one more process off the bound.

Both variants share :class:`TwoStepProcess`; the task/object flavour and
the E9 ablation switches are selected by :class:`TwoStepConfig`.

Deviations from the figure, both documented in DESIGN.md: the ``1B``
message also carries the sender's input value, and the selection rule has
a last-resort liveness completion — see :mod:`repro.protocols.selection`
item 6 for why wait-freedom of the object variant needs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Set, Tuple

from ..core.errors import ConfigurationError
from ..core.messages import Message
from ..core.process import ClientRequest, Context, Process, ProcessFactory, ProcessId
from ..core.quorums import classic_quorum_size, fast_quorum_size, validate_resilience
from ..core.values import BOTTOM, MaybeValue, is_bottom
from ..omega import OmegaFactory, OmegaService, StaticOmega
from .selection import PAPER_POLICY, OneBReport, SelectionPolicy, select_value

#: Timer driving new-ballot nomination (§C.1): first 2Δ, then every 5Δ.
BALLOT_TIMER = "twostep:new_ballot"


def _value_sig_key(value: MaybeValue) -> tuple:
    """Sort- and hash-safe key for a proposal value (int, str, BOTTOM, ...)."""
    return (type(value).__name__, value)


# ----------------------------------------------------------------------
# Messages (Figure 1 vocabulary).
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Propose(Message):
    """Fast-path proposal broadcast at startup / on ``propose(v)``."""

    value: MaybeValue


@dataclass(frozen=True)
class TwoB(Message):
    """A vote for *value* at *ballot*, sent to whoever solicited it."""

    ballot: int
    value: MaybeValue


@dataclass(frozen=True)
class Decide(Message):
    """Decision announcement broadcast by a decider."""

    value: MaybeValue


@dataclass(frozen=True)
class OneA(Message):
    """New-ballot solicitation from the ballot's coordinator."""

    ballot: int


@dataclass(frozen=True)
class OneB(Message):
    """State report answering a ``1A`` (with the input-value extension)."""

    ballot: int
    vbal: int
    value: MaybeValue
    proposer: MaybeValue
    decided: MaybeValue
    initial_value: MaybeValue


@dataclass(frozen=True)
class TwoA(Message):
    """The coordinator's proposal for its slow ballot."""

    ballot: int
    value: MaybeValue


@dataclass(frozen=True)
class ProposeRequest(ClientRequest):
    """Client invocation of ``propose(value)`` (object formulation)."""

    value: MaybeValue


# ----------------------------------------------------------------------
# Configuration.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TwoStepConfig:
    """Resilience parameters plus the E9 ablation switches.

    ``value_ordered_fast_path=False`` drops the ``v >= initial_val``
    acceptance condition (line 11), degenerating the fast path to Fast
    Paxos's first-come acceptance. ``broadcast_decide=False`` suppresses
    the ``Decide`` broadcast (line 20). The selection-rule ablations live
    in :class:`repro.protocols.selection.SelectionPolicy`.
    """

    f: int
    e: int
    delta: float = 1.0
    is_object: bool = False
    enforce_bound: bool = True
    value_ordered_fast_path: bool = True
    broadcast_decide: bool = True
    selection: SelectionPolicy = PAPER_POLICY

    def minimum_processes(self) -> int:
        """The tight bound of Theorem 6 (object) or Theorem 5 (task)."""
        fast_term = 2 * self.e + self.f - (1 if self.is_object else 0)
        return max(fast_term, 2 * self.f + 1)

    def validate(self, n: int) -> None:
        if self.delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {self.delta}")
        if not self.enforce_bound:
            if n < 1:
                raise ConfigurationError(f"need n >= 1, got {n}")
            return
        validate_resilience(n, self.f, self.e)
        if n < self.minimum_processes():
            kind = "object" if self.is_object else "task"
            raise ConfigurationError(
                f"e-two-step consensus {kind} needs n >= "
                f"{self.minimum_processes()} (f={self.f}, e={self.e}); got n={n}"
            )


# ----------------------------------------------------------------------
# The process.
# ----------------------------------------------------------------------


class TwoStepProcess(Process):
    """One participant of Figure 1.

    For the task variant pass the input value as *proposal*; for the
    object variant leave it ``BOTTOM`` and inject :class:`ProposeRequest`
    messages (or call :meth:`propose` from a harness-held context).
    """

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        config: TwoStepConfig,
        omega: Optional[OmegaService] = None,
        proposal: MaybeValue = BOTTOM,
    ) -> None:
        super().__init__(pid, n)
        config.validate(n)
        if config.is_object and not is_bottom(proposal):
            raise ConfigurationError(
                "object variant takes proposals via propose(), not the constructor"
            )
        self.config = config
        self.omega = omega if omega is not None else StaticOmega(0)

        # Figure 1 state.
        self.bal: int = 0
        self.vbal: int = 0
        self.val: MaybeValue = BOTTOM
        self.initial_val: MaybeValue = BOTTOM if config.is_object else proposal
        self.proposer: MaybeValue = BOTTOM
        self.decided: MaybeValue = BOTTOM

        # Decision provenance (observability only — never read by the
        # protocol): which path produced the local decision. "fast" is
        # the 2Δ path of lines 9-17, "slow" a classic quorum at a ballot
        # b > 0 (lines 43-69), "learned" an adopted Decide broadcast.
        self.decided_path: Optional[str] = None
        self.decided_ballot: Optional[int] = None

        # Vote bookkeeping for the "received ... from all q in P" guards.
        self._fast_votes: Dict[MaybeValue, Set[ProcessId]] = {}
        self._slow_votes: Dict[Tuple[int, MaybeValue], Set[ProcessId]] = {}
        self._oneb_reports: Dict[int, Dict[ProcessId, OneBReport]] = {}
        self._sent_twoa: Set[int] = set()

    # ------------------------------------------------------------------
    # Activations.
    # ------------------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self.omega.on_start(ctx)
        ctx.set_timer(BALLOT_TIMER, 2 * self.config.delta)
        if not self.config.is_object and not is_bottom(self.initial_val):
            # Task variant, line 1-5: broadcast the input immediately. The
            # proposer's own implicit vote is accounted for in the fast
            # guard (|P ∪ {p_i}| >= n - e), so a 1-process system decides
            # on the spot.
            ctx.broadcast(Propose(self.initial_val), include_self=False)
            self._try_fast_decide(ctx, self.initial_val)

    def propose(self, ctx: Context, value: MaybeValue) -> None:
        """Object variant, red lines 2-5: adopt and broadcast an input."""
        if is_bottom(value):
            raise ConfigurationError("cannot propose BOTTOM")
        if not is_bottom(self.val):
            return  # already voted for someone's proposal (red guard)
        if not is_bottom(self.initial_val):
            return  # at most one proposal per process
        self.initial_val = value
        ctx.broadcast(Propose(value), include_self=False)
        self._try_fast_decide(ctx, value)

    def on_message(self, ctx: Context, sender: ProcessId, message: Message) -> None:
        if self.omega.handle_message(ctx, sender, message):
            return
        if isinstance(message, ProposeRequest):
            self.propose(ctx, message.value)
        elif isinstance(message, Propose):
            self._on_propose(ctx, sender, message.value)
        elif isinstance(message, TwoB):
            self._on_two_b(ctx, sender, message)
        elif isinstance(message, Decide):
            self._learn_decision(ctx, message.value)
        elif isinstance(message, OneA):
            self._on_one_a(ctx, sender, message.ballot)
        elif isinstance(message, OneB):
            self._on_one_b(ctx, sender, message)
        elif isinstance(message, TwoA):
            self._on_two_a(ctx, sender, message)

    def on_timer(self, ctx: Context, name: str) -> None:
        if self.omega.handle_timer(ctx, name):
            return
        if name != BALLOT_TIMER:
            return
        if not is_bottom(self.decided):
            return  # decided processes stop nominating ballots
        ctx.set_timer(BALLOT_TIMER, 5 * self.config.delta)
        if self.omega.leader(ctx.now) == self.pid:
            ballot = self._next_owned_ballot()
            ctx.broadcast(OneA(ballot), include_self=True)

    # ------------------------------------------------------------------
    # Fast path.
    # ------------------------------------------------------------------

    def _on_propose(self, ctx: Context, sender: ProcessId, value: MaybeValue) -> None:
        # Line 10-11 precondition.
        if self.bal != 0 or not is_bottom(self.val):
            return
        if self.config.value_ordered_fast_path and not value >= self.initial_val:
            return
        if self.config.is_object:
            # Red conjunct: once I have proposed, I vote only for my value.
            if not is_bottom(self.initial_val) and value != self.initial_val:
                return
        self.val = value
        self.proposer = sender
        ctx.send(sender, TwoB(0, value))

    def _try_fast_decide(self, ctx: Context, value: MaybeValue) -> None:
        # Line 16-17, first disjunct: |P ∪ {p_i}| >= n - e with the local
        # state still at ballot 0 and the local vote compatible.
        if not is_bottom(self.decided) or self.bal != 0:
            return
        if not (is_bottom(self.val) or self.val == value):
            return
        supporters = set(self._fast_votes.get(value, ()))
        supporters.add(self.pid)
        if len(supporters) >= fast_quorum_size(self.n, self.config.e):
            self._decide(ctx, value, path="fast", ballot=0)

    # ------------------------------------------------------------------
    # Vote collection (fast and slow 2Bs).
    # ------------------------------------------------------------------

    def _on_two_b(self, ctx: Context, sender: ProcessId, message: TwoB) -> None:
        if message.ballot == 0:
            self._fast_votes.setdefault(message.value, set()).add(sender)
            self._try_fast_decide(ctx, message.value)
            return
        key = (message.ballot, message.value)
        voters = self._slow_votes.setdefault(key, set())
        voters.add(sender)
        # Line 17, second disjunct: the guard reads the *local* ballot, so
        # votes for superseded ballots can never trigger a decision.
        if message.ballot != self.bal or not is_bottom(self.decided):
            return
        if len(voters) >= classic_quorum_size(self.n, self.config.f):
            self._decide(ctx, message.value, path="slow", ballot=message.ballot)

    # ------------------------------------------------------------------
    # Slow path: ballots.
    # ------------------------------------------------------------------

    def _next_owned_ballot(self) -> int:
        """Smallest ballot above ``bal`` owned by this process (b ≡ pid mod n)."""
        ballot = (self.bal // self.n) * self.n + self.pid
        while ballot <= self.bal:
            ballot += self.n
        return ballot

    def _on_one_a(self, ctx: Context, sender: ProcessId, ballot: int) -> None:
        # Lines 28-31.
        if ballot <= self.bal:
            return
        self.bal = ballot
        ctx.send(
            sender,
            OneB(
                ballot=ballot,
                vbal=self.vbal,
                value=self.val,
                proposer=self.proposer,
                decided=self.decided,
                initial_value=self.initial_val,
            ),
        )

    def _on_one_b(self, ctx: Context, sender: ProcessId, message: OneB) -> None:
        # Lines 43-63, executed by the ballot's coordinator.
        if message.ballot % self.n != self.pid:
            return  # not my ballot; stray message
        reports = self._oneb_reports.setdefault(message.ballot, {})
        reports[sender] = OneBReport(
            sender=sender,
            vbal=message.vbal,
            value=message.value,
            proposer=message.proposer,
            decided=message.decided,
            initial_value=message.initial_value,
        )
        if message.ballot in self._sent_twoa:
            return
        quorum = classic_quorum_size(self.n, self.config.f)
        if len(reports) < quorum:
            return
        # The uniqueness arguments of Lemma 7 / Lemma C.2 are stated for a
        # quorum of exactly n - f reports, so the vote counting runs over
        # the first n - f received (dict preserves arrival order).
        frozen = list(reports.values())[:quorum]
        chosen = select_value(
            frozen,
            self.n,
            self.config.f,
            self.config.e,
            own_initial=self.initial_val,
            policy=self.config.selection,
        )
        if is_bottom(chosen):
            # A BOTTOM selection proves no value was (or can ever be)
            # fast-decided: the frozen quorum reported no votes at all and
            # its members can no longer vote at ballot 0, leaving at most
            # f < n - e potential fast voters. Any proposed value is
            # therefore safe, so consult every report for one.
            chosen = select_value(
                list(reports.values()),
                self.n,
                self.config.f,
                self.config.e,
                own_initial=self.initial_val,
                policy=self.config.selection,
            )
        if is_bottom(chosen):
            return  # nothing proposable anywhere yet; retry on later 1Bs
        self._sent_twoa.add(message.ballot)
        ctx.broadcast(TwoA(message.ballot, chosen), include_self=True)

    def _on_two_a(self, ctx: Context, sender: ProcessId, message: TwoA) -> None:
        # Lines 66-69.
        if self.bal > message.ballot:
            return
        self.val = message.value
        self.bal = message.ballot
        self.vbal = message.ballot
        self.proposer = BOTTOM  # slot-0 provenance no longer meaningful
        ctx.send(sender, TwoB(message.ballot, message.value))

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def clone(self) -> "TwoStepProcess":
        """Fast deep-enough copy for the state-space explorer.

        Scalars are immutable; containers are rebuilt one level deep
        (their elements — values, pids, reports — are immutable). The
        config and Ω service are shared: both are constant under the
        explorer (Ω oracles only answer ``leader``).
        """
        twin = TwoStepProcess.__new__(TwoStepProcess)
        twin.pid = self.pid
        twin.n = self.n
        twin.config = self.config
        twin.omega = self.omega
        twin.bal = self.bal
        twin.vbal = self.vbal
        twin.val = self.val
        twin.initial_val = self.initial_val
        twin.proposer = self.proposer
        twin.decided = self.decided
        twin.decided_path = self.decided_path
        twin.decided_ballot = self.decided_ballot
        twin._fast_votes = {v: set(s) for v, s in self._fast_votes.items()}
        twin._slow_votes = {k: set(s) for k, s in self._slow_votes.items()}
        twin._oneb_reports = {
            ballot: dict(reports) for ballot, reports in self._oneb_reports.items()
        }
        twin._sent_twoa = set(self._sent_twoa)
        return twin

    def sig_key(self) -> tuple:
        """Hashable structural signature for the state-space explorer.

        Semantically equivalent to :meth:`snapshot` but built from the
        already-hashable field values directly (no ``repr``, no dicts), so
        the explorer can intern it without recursive canonicalization.
        Values are keyed as ``(type-name, value)`` so mixed value domains
        still sort deterministically.
        """
        vk = _value_sig_key
        return (
            self.bal,
            self.vbal,
            vk(self.val),
            vk(self.initial_val),
            vk(self.proposer),
            vk(self.decided),
            tuple(
                sorted(
                    (vk(value), tuple(sorted(voters)))
                    for value, voters in self._fast_votes.items()
                )
            ),
            tuple(
                sorted(
                    (ballot, vk(value), tuple(sorted(voters)))
                    for (ballot, value), voters in self._slow_votes.items()
                )
            ),
            # 1B reports keep their arrival order — the coordinator freezes
            # the first n-f as its quorum, so order is semantic. OneBReport
            # is a frozen dataclass, hence hashable as-is.
            tuple(
                sorted(
                    (ballot, tuple(reports.items()))
                    for ballot, reports in self._oneb_reports.items()
                )
            ),
            tuple(sorted(self._sent_twoa)),
        )

    def snapshot(self) -> dict:
        """Canonical protocol state (used by traces and the explorer).

        Everything that can influence future behaviour, rendered with
        order-insensitive collections; excludes constants (config, Ω) and
        anything whose repr is identity-based.
        """
        return {
            "bal": self.bal,
            "vbal": self.vbal,
            "val": repr(self.val),
            "initial_val": repr(self.initial_val),
            "proposer": repr(self.proposer),
            "decided": repr(self.decided),
            "fast_votes": {
                repr(value): tuple(sorted(voters))
                for value, voters in self._fast_votes.items()
            },
            "slow_votes": {
                repr(key): tuple(sorted(voters))
                for key, voters in self._slow_votes.items()
            },
            # NOTE: 1B reports keep their arrival order — the coordinator
            # freezes the first n-f as its quorum, so order is semantic.
            "oneb": {
                ballot: tuple(
                    (sender, repr(report)) for sender, report in reports.items()
                )
                for ballot, reports in self._oneb_reports.items()
            },
            "sent_twoa": tuple(sorted(self._sent_twoa)),
        }

    # ------------------------------------------------------------------
    # Decisions.
    # ------------------------------------------------------------------

    def _decide(self, ctx: Context, value: MaybeValue, path: str, ballot: int) -> None:
        self.val = value
        self.decided = value
        self.decided_path = path
        self.decided_ballot = ballot
        obs = ctx.obs
        obs.registry.inc(
            "consensus.decisions_fast" if path == "fast" else "consensus.decisions_slow"
        )
        if obs.trace.enabled:  # repr(value) of a batch is not free
            obs.trace.emit(
                "decide", pid=self.pid, path=path, ballot=ballot, value=repr(value),
                t=ctx.now,
            )
        ctx.decide(value)
        ctx.cancel_timer(BALLOT_TIMER)
        if self.config.broadcast_decide:
            ctx.broadcast(Decide(value), include_self=False)

    def _learn_decision(self, ctx: Context, value: MaybeValue) -> None:
        # Lines 23-25.
        if not is_bottom(self.decided):
            return
        self.val = value
        self.decided = value
        self.decided_path = "learned"
        self.decided_ballot = None
        obs = ctx.obs
        obs.registry.inc("consensus.decisions_learned")
        if obs.trace.enabled:
            obs.trace.emit(
                "decide", pid=self.pid, path="learned", ballot=None, value=repr(value),
                t=ctx.now,
            )
        ctx.decide(value)
        ctx.cancel_timer(BALLOT_TIMER)


# ----------------------------------------------------------------------
# Factories.
# ----------------------------------------------------------------------


def twostep_task_factory(
    proposals: Mapping[ProcessId, MaybeValue],
    f: int,
    e: int,
    delta: float = 1.0,
    omega_factory: Optional[OmegaFactory] = None,
    config: Optional[TwoStepConfig] = None,
) -> ProcessFactory:
    """Factory for the task variant with the given initial configuration."""
    base = config if config is not None else TwoStepConfig(f=f, e=e, delta=delta)
    base = replace(base, f=f, e=e, delta=delta, is_object=False)

    def build(pid: ProcessId, n: int) -> TwoStepProcess:
        if pid not in proposals:
            raise ConfigurationError(f"no proposal supplied for process {pid}")
        omega = omega_factory(pid, n) if omega_factory is not None else None
        return TwoStepProcess(pid, n, base, omega=omega, proposal=proposals[pid])

    return build


def twostep_object_factory(
    f: int,
    e: int,
    delta: float = 1.0,
    omega_factory: Optional[OmegaFactory] = None,
    config: Optional[TwoStepConfig] = None,
) -> ProcessFactory:
    """Factory for the object variant; inputs arrive via ProposeRequest."""
    base = config if config is not None else TwoStepConfig(f=f, e=e, delta=delta)
    base = replace(base, f=f, e=e, delta=delta, is_object=True)

    def build(pid: ProcessId, n: int) -> TwoStepProcess:
        omega = omega_factory(pid, n) if omega_factory is not None else None
        return TwoStepProcess(pid, n, base, omega=omega)

    return build
