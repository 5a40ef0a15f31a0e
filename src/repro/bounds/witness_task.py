"""Executable lower-bound witness for the consensus *task* (Appendix B.1).

Theorem 5 ("only if") shows that no f-resilient e-two-step consensus task
exists on ``n = 2e + f - 1`` processes. This module executes the proof's
run construction against a concrete protocol (by default Figure 1 itself,
instantiated one process below its bound with the guard disabled) and
observes the predicted agreement violation.

The construction (the ``k = 0`` base case of Lemma B.2, which is the full
argument whenever the protocol's two-step runs behave like Figure 1's —
the inductive steps exist to strip protocols of pathological asymmetries
an adversarially designed protocol might exhibit):

* Partition ``Π`` into ``E₀`` and ``E₁`` of size ``e`` and ``F₀`` of size
  ``f - 1`` (so ``n = 2e + f - 1``). ``E₀ ∪ F₀`` propose 0, ``E₁``
  propose 1.
* σ — an ``E₀``-faulty synchronous run two-step for ``p ∈ E₁`` deciding 1
  (exists because the protocol is e-two-step and the highest proposal
  among the live processes is 1).
* σ′ — an ``E₁``-faulty synchronous run two-step for ``p′ ∈ F₀`` deciding
  0 (Definition 4 item 2: all live processes propose 0).
* σ₁ splices them: ``E₁ ∪ F₀`` run their two σ rounds and ``p`` decides 1;
  then ``E₀`` runs its two σ′ rounds (legitimate: ``F₀``'s first-round
  messages are identical in σ and σ′, and everything from ``E₁`` to
  ``E₀`` is delayed); then ``F₀ ∪ {p}`` — exactly ``f`` processes — crash.
* σ₀ is the mirror image: ``p′`` decides 0, the same ``f`` processes
  crash. The surviving processes ``E₀ ∪ E₁ ∖ {p}`` have performed
  *identical* steps in σ₁ and σ₀, so any continuation of one is a
  continuation of the other; f-resilience forces the continuation to
  decide — contradicting whichever of ``p`` (decided 1) or ``p′``
  (decided 0) it disagrees with.

Running the continuation on σ₁ and σ₀ therefore must expose an agreement
violation in at least one of them; the witness reports which, and also
verifies the indistinguishability claim by comparing the survivors' local
record sequences across the two runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from ..core.errors import ConfigurationError
from ..core.process import ProcessFactory, ProcessId
from ..core.runs import Run
from ..core.specs import Violation, check_agreement
from ..core.values import MaybeValue
from ..omega import static_omega_factory
from ..protocols.twostep import BALLOT_TIMER, Propose, TwoB, TwoStepConfig, twostep_task_factory
from ..sim.arena import Arena
from .driver import DELTA, deliver_batch, drive_continuation


@dataclass(frozen=True)
class TaskPartition:
    """The B.1 cast of characters for ``n = 2e + f - 1``."""

    n: int
    f: int
    e: int
    e0: Sequence[ProcessId]
    e1: Sequence[ProcessId]
    f0: Sequence[ProcessId]
    p: ProcessId  # two-step decider of σ (decides 1), member of E1
    p_prime: ProcessId  # two-step decider of σ′ (decides 0), member of F0

    @property
    def crash_set(self) -> Set[ProcessId]:
        return set(self.f0) | {self.p}

    @property
    def live(self) -> Set[ProcessId]:
        return set(range(self.n)) - self.crash_set

    @property
    def proposals(self) -> Dict[ProcessId, MaybeValue]:
        values: Dict[ProcessId, MaybeValue] = {}
        for pid in list(self.e0) + list(self.f0):
            values[pid] = 0
        for pid in self.e1:
            values[pid] = 1
        return values


@dataclass
class TaskWitnessResult:
    """Outcome of executing the B.1 construction."""

    partition: TaskPartition
    run_sigma1: Run
    run_sigma0: Run
    violations_sigma1: List[Violation]
    violations_sigma0: List[Violation]
    survivors_views_equal: bool
    decision_of_p: MaybeValue = None
    decision_of_p_prime: MaybeValue = None
    continuation_decision: MaybeValue = None

    @property
    def violation_found(self) -> bool:
        return bool(self.violations_sigma1 or self.violations_sigma0)

    def describe(self) -> str:
        lines = [
            f"Task lower-bound witness at n={self.partition.n} "
            f"(= 2e+f-1 with f={self.partition.f}, e={self.partition.e})",
            f"  p={self.partition.p} decided {self.decision_of_p!r} in σ1 "
            f"(two-step, E0-faulty splice)",
            f"  p'={self.partition.p_prime} decided {self.decision_of_p_prime!r} "
            f"in σ0 (two-step, E1-faulty splice)",
            f"  continuation decided {self.continuation_decision!r}",
            f"  survivors' views identical across σ1/σ0: {self.survivors_views_equal}",
        ]
        for name, violations in (
            ("σ1", self.violations_sigma1),
            ("σ0", self.violations_sigma0),
        ):
            for violation in violations:
                lines.append(f"  {name} AGREEMENT VIOLATION: {violation}")
        if not self.violation_found:
            lines.append("  no violation observed (construction inconclusive)")
        return "\n".join(lines)


def default_task_partition(f: int, e: int) -> TaskPartition:
    """The canonical pid assignment: E0, then E1, then F0, in pid order."""
    if e < 2 or f < 1:
        raise ConfigurationError("the construction needs e >= 2 and f >= 1")
    n = 2 * e + f - 1
    if n < 2 * f + 1:
        raise ConfigurationError(
            f"n = 2e+f-1 = {n} < 2f+1 = {2 * f + 1}: the fast term does not "
            "bind at this (f, e); the binding bound is 2f+1 and the witness "
            "does not apply"
        )
    e0 = tuple(range(e))
    e1 = tuple(range(e, 2 * e))
    f0 = tuple(range(2 * e, n))
    return TaskPartition(n=n, f=f, e=e, e0=e0, e1=e1, f0=f0, p=e1[0], p_prime=f0[0])


def _build_factory(
    partition: TaskPartition, config: Optional[TwoStepConfig]
) -> ProcessFactory:
    base = config if config is not None else TwoStepConfig(
        f=partition.f, e=partition.e, enforce_bound=False
    )
    if base.enforce_bound:
        raise ConfigurationError(
            "the witness instantiates the protocol below its bound; pass a "
            "config with enforce_bound=False"
        )
    leader = min(partition.live)
    return twostep_task_factory(
        partition.proposals,
        partition.f,
        partition.e,
        omega_factory=static_omega_factory(leader),
        config=base,
    )


def _spliced_run(
    partition: TaskPartition,
    factory: ProcessFactory,
    first_group: Sequence[ProcessId],
    first_decider: ProcessId,
    second_group: Sequence[ProcessId],
    second_prefer: ProcessId,
) -> Arena:
    """Execute one of the paired splices (σ₁ or σ₀).

    *first_group* runs its two synchronous rounds with *first_decider*'s
    proposal preferred (it decides at ``2Δ``); *second_group* then runs
    its own two rounds seeing only messages from ``second_group ∪ F₀``;
    finally ``F₀ ∪ {p}`` crash and the survivors run the continuation.
    """
    arena = Arena(factory, partition.n, proposals=partition.proposals)

    # Round 1 of the first group: start-up broadcasts.
    for pid in sorted(first_group):
        arena.start(pid)
    # Round 2: everyone in the group handles the group's proposals, with
    # the designated decider's proposal first.
    arena.advance_to(DELTA)
    deliver_batch(arena, first_group, first_group, kind=Propose, prefer=first_decider)
    # The decider collects its fast votes and decides at 2Δ.
    arena.advance_to(2 * DELTA)
    deliver_batch(arena, [first_decider], first_group, kind=TwoB)
    if not arena.has_decided(first_decider):
        raise ConfigurationError(
            f"reference two-step run failed: process {first_decider} did not "
            "decide at 2Δ (is the protocol e-two-step at all?)"
        )

    # The second group now runs *its* two rounds (its round 1 happened at
    # its own start; asynchrony lets us place it here). It must see only
    # messages from itself and F0 — whose first-round messages are
    # identical in both reference runs.
    for pid in sorted(second_group):
        arena.start(pid)
    allowed_senders = set(second_group) | set(partition.f0)
    deliver_batch(arena, second_group, allowed_senders, kind=Propose, prefer=second_prefer)

    # Crash F0 and p: exactly f processes.
    arena.crash_many(partition.crash_set)
    return arena


def task_lower_bound_witness(
    f: int, e: int, config: Optional[TwoStepConfig] = None
) -> TaskWitnessResult:
    """Execute the full B.1 construction; see the module docstring."""
    partition = default_task_partition(f, e)
    factory = _build_factory(partition, config)

    sigma_group = list(partition.e1) + list(partition.f0)  # live in σ (E0 faulty)
    sigma_prime_group = list(partition.e0) + list(partition.f0)  # live in σ′

    # σ1: first the σ rounds (p decides 1), then E0's σ′ rounds.
    arena1 = _spliced_run(
        partition,
        factory,
        first_group=sigma_group,
        first_decider=partition.p,
        second_group=list(partition.e0),
        second_prefer=partition.p_prime,
    )
    drive_continuation(arena1, sorted(partition.live), BALLOT_TIMER)
    run1 = arena1.run_record

    # σ0: first the σ′ rounds (p′ decides 0), then E1's σ rounds.
    factory0 = _build_factory(partition, config)
    arena0 = _spliced_run(
        partition,
        factory0,
        first_group=sigma_prime_group,
        first_decider=partition.p_prime,
        second_group=list(partition.e1),
        second_prefer=partition.p,
    )
    drive_continuation(arena0, sorted(partition.live), BALLOT_TIMER)
    run0 = arena0.run_record

    continuation_decision = None
    for pid in sorted(partition.live):
        if run1.decision_time(pid) is not None:
            continuation_decision = run1.decided_value(pid)
            break

    return TaskWitnessResult(
        partition=partition,
        run_sigma1=run1,
        run_sigma0=run0,
        violations_sigma1=check_agreement(run1),
        violations_sigma0=check_agreement(run0),
        survivors_views_equal=run1.views_equal(run0, sorted(partition.live)),
        decision_of_p=run1.decided_value(partition.p),
        decision_of_p_prime=run0.decided_value(partition.p_prime),
        continuation_decision=continuation_decision,
    )
