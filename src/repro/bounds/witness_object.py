"""Executable lower-bound witness for the consensus *object* (Appendix B.2).

Theorem 6 ("only if") shows no f-resilient e-two-step consensus object
exists on ``n = 2e + f - 2`` processes. The proof's construction, executed
here against a concrete object protocol (Figure 1 with red lines,
instantiated below its bound):

* Fix distinct ``p`` and ``q`` and two quorums ``E₀ ∋ p``, ``E₁ ∋ q`` of
  size ``n - e`` with ``F = E₀ ∩ E₁`` (``|F| = f - 2``),
  ``E₀* = E₀ ∖ (E₁ ∪ {p})``, ``E₁* = E₁ ∖ (E₀ ∪ {q})`` (each ``e - 1``).
* σ₀ — only ``p`` calls ``propose(0)``; everything outside ``E₀`` is
  crashed; ``p`` decides 0 at ``2Δ`` (Definition A.1 item 1).
* σ₁ — symmetric: only ``q`` proposes 1 inside ``E₁``.
* σ — splice: round 1 of σ₀ for ``F ∪ E₀* ∪ {p}``, round 1 of σ₁ for
  ``E₁* ∪ {q}`` (``F``'s round-1 behaviour is identical in both — it
  proposes nothing), crash ``F ∪ {p, q}`` (exactly ``f``), round 2 of σ₀
  for ``E₀*`` and of σ₁ for ``E₁*``. The survivors ``E₀* ∪ E₁*`` are
  ``n - f`` strong, so f-resilience forces a continuation σ̂ deciding
  some value — for Figure 1's recovery rule, value 1 (both 0 and 1 hold
  ``e - 1 > n - f - e = e - 2`` surviving votes; the max tie-break picks 1).
* σ′ — the contradiction: this time ``E₀`` completes both σ₀ rounds, so
  ``p`` collects its ``n - e`` fast votes and decides 0 *before* crashing;
  ``F ∪ {q}`` crash at the end of round 2 and ``p`` right after deciding
  (``f`` crashes in total). The survivors are in *exactly* the state they
  were in after σ — they cannot tell σ′ from σ̂ — so the same continuation
  decides 1. One run, two decisions: agreement violated.

The witness executes σ (with its continuation) and σ′, checks the
survivors' local views are identical across the two, and reports the
agreement violation that σ′ must exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set

from ..core.errors import ConfigurationError
from ..core.process import ProcessFactory, ProcessId
from ..core.runs import Run
from ..core.specs import Violation, check_agreement
from ..core.values import MaybeValue
from ..omega import static_omega_factory
from ..protocols.twostep import (
    BALLOT_TIMER,
    Propose,
    ProposeRequest,
    TwoB,
    TwoStepConfig,
    twostep_object_factory,
)
from ..sim.arena import Arena
from .driver import DELTA, deliver_batch, drive_continuation


@dataclass(frozen=True)
class ObjectPartition:
    """The B.2 cast for ``n = 2e + f - 2``."""

    n: int
    f: int
    e: int
    shared: Sequence[ProcessId]  # F = E0 ∩ E1, size f - 2
    p: ProcessId
    q: ProcessId
    e0_star: Sequence[ProcessId]  # size e - 1
    e1_star: Sequence[ProcessId]  # size e - 1

    @property
    def e0(self) -> Set[ProcessId]:
        return set(self.shared) | set(self.e0_star) | {self.p}

    @property
    def e1(self) -> Set[ProcessId]:
        return set(self.shared) | set(self.e1_star) | {self.q}

    @property
    def survivors(self) -> Set[ProcessId]:
        return set(self.e0_star) | set(self.e1_star)


@dataclass
class ObjectWitnessResult:
    """Outcome of executing the B.2 construction."""

    partition: ObjectPartition
    run_sigma: Run
    run_sigma_prime: Run
    violations: List[Violation]
    survivors_views_equal: bool
    decision_of_p: MaybeValue = None
    continuation_decision: MaybeValue = None

    @property
    def violation_found(self) -> bool:
        return bool(self.violations)

    def describe(self) -> str:
        lines = [
            f"Object lower-bound witness at n={self.partition.n} "
            f"(= 2e+f-2 with f={self.partition.f}, e={self.partition.e})",
            f"  σ: spliced run, survivors decided {self.continuation_decision!r}",
            f"  σ′: p={self.partition.p} fast-decided {self.decision_of_p!r} "
            "before crashing",
            f"  survivors' views identical across σ/σ′: {self.survivors_views_equal}",
        ]
        for violation in self.violations:
            lines.append(f"  σ′ AGREEMENT VIOLATION: {violation}")
        if not self.violations:
            lines.append("  no violation observed (construction inconclusive)")
        return "\n".join(lines)


def default_object_partition(f: int, e: int) -> ObjectPartition:
    """Canonical pid assignment: F, then p, q, then E0*, then E1*."""
    if e < 2 or f < 2:
        raise ConfigurationError("the construction needs e >= 2 and f >= 2")
    n = 2 * e + f - 2
    if n < 2 * f + 1:
        raise ConfigurationError(
            f"n = 2e+f-2 = {n} < 2f+1 = {2 * f + 1}: the fast term does not "
            "bind at this (f, e); the witness does not apply"
        )
    shared = tuple(range(f - 2))
    p = f - 2
    q = f - 1
    e0_star = tuple(range(f, f + e - 1))
    e1_star = tuple(range(f + e - 1, n))
    return ObjectPartition(
        n=n, f=f, e=e, shared=shared, p=p, q=q, e0_star=e0_star, e1_star=e1_star
    )


def _build_factory(partition: ObjectPartition) -> ProcessFactory:
    """Figure 1 with red lines, instantiated below its bound."""
    config = TwoStepConfig(
        f=partition.f, e=partition.e, is_object=True, enforce_bound=False
    )
    leader = min(partition.survivors)
    return twostep_object_factory(
        partition.f,
        partition.e,
        omega_factory=static_omega_factory(leader),
        config=config,
    )


def _first_round(arena: Arena, partition: ObjectPartition) -> None:
    """Round 1 of the splice: everyone starts; p proposes 0, q proposes 1."""
    arena.start_all()
    uid_p = arena.inject(partition.p, ProposeRequest(0))
    uid_q = arena.inject(partition.q, ProposeRequest(1))
    arena.deliver(arena.pending[uid_p])
    arena.deliver(arena.pending[uid_q])
    arena.run_record.proposals[partition.p] = 0
    arena.run_record.proposals[partition.q] = 1


def object_lower_bound_witness(f: int, e: int) -> ObjectWitnessResult:
    """Execute the full B.2 construction; see the module docstring."""
    partition = default_object_partition(f, e)

    # ---- σ: crash early, splice the two round-2s, run the continuation.
    arena_s = Arena(_build_factory(partition), partition.n)
    _first_round(arena_s, partition)
    arena_s.advance_to(DELTA)
    arena_s.crash_many(set(partition.shared) | {partition.p, partition.q})
    deliver_batch(arena_s, partition.e0_star, [partition.p], kind=Propose)
    deliver_batch(arena_s, partition.e1_star, [partition.q], kind=Propose)
    drive_continuation(arena_s, sorted(partition.survivors), BALLOT_TIMER)
    run_sigma = arena_s.run_record

    continuation_decision = None
    for pid in sorted(partition.survivors):
        if run_sigma.decision_time(pid) is not None:
            continuation_decision = run_sigma.decided_value(pid)
            break

    # ---- σ′: E0 completes σ0, p decides 0 and crashes; same continuation.
    arena_p = Arena(_build_factory(partition), partition.n)
    _first_round(arena_p, partition)
    arena_p.advance_to(DELTA)
    # Round 2 of σ0 for all of E0: F and E0* receive p's proposal and vote.
    deliver_batch(
        arena_p,
        list(partition.shared) + list(partition.e0_star),
        [partition.p],
        kind=Propose,
    )
    # Round 2 of σ1 for E1*: they receive q's proposal and vote.
    deliver_batch(arena_p, partition.e1_star, [partition.q], kind=Propose)
    # F and q crash at the end of round 2 (f - 1 crashes so far).
    arena_p.crash_many(set(partition.shared) | {partition.q})
    # p collects its n - e fast votes (its own included) and decides 0.
    arena_p.advance_to(2 * DELTA)
    deliver_batch(
        arena_p,
        [partition.p],
        list(partition.shared) + list(partition.e0_star),
        kind=TwoB,
    )
    if not arena_p.has_decided(partition.p):
        raise ConfigurationError(
            f"σ′ failed: p={partition.p} did not fast-decide at 2Δ "
            "(is the object protocol e-two-step at all?)"
        )
    decision_of_p = arena_p.decided_value(partition.p)
    # ... and crashes right after (f crashes in total).
    arena_p.crash(partition.p)
    # The survivors cannot tell σ′ from σ̂; the same continuation runs.
    drive_continuation(arena_p, sorted(partition.survivors), BALLOT_TIMER)
    run_sigma_prime = arena_p.run_record

    return ObjectWitnessResult(
        partition=partition,
        run_sigma=run_sigma,
        run_sigma_prime=run_sigma_prime,
        violations=check_agreement(run_sigma_prime),
        survivors_views_equal=run_sigma.views_equal(
            run_sigma_prime, sorted(partition.survivors)
        ),
        decision_of_p=decision_of_p,
        continuation_decision=continuation_decision,
    )
