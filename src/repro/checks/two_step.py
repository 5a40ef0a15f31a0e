"""Executable e-two-step definitions (Definition 4 and Definition A.1).

These checkers turn the paper's definitions into decision procedures over
a concrete protocol implementation:

* :func:`check_task_two_step` — Definition 4. For every faulty set ``E``
  of size ``e`` and every initial configuration over a small value
  domain, (1) some process must have an E-faulty synchronous run deciding
  by ``2Δ``; and (2) from same-value configurations, *every* correct
  process must have such a run.
* :func:`check_object_two_step` — Definition A.1. For every value, ``E``,
  and correct ``p``: (1) a run where only ``p`` proposes is two-step for
  ``p``; (2) a run where all correct processes propose the same value at
  the start of round one is two-step for ``p``.

The existential "there exists a run" is resolved the way the paper's own
existence proofs resolve it: by choosing which same-instant message each
process handles first. The search space is the set of sender-preference
policies (plus FIFO), which is exactly the freedom Definition 2 leaves.

A failed existential is reported, not proven impossible — the search is
over a finite family of schedules. For the protocols in this library the
family is sufficient (their two-step witnesses are sender-preference
runs); for *negative* results (Paxos is not e-two-step) the checkers are
used on protocols whose two-step failure is schedule-independent: no
E-faulty synchronous run whatsoever can decide by ``2Δ`` when the round-1
information flow is insufficient, so exhausting preferences is decisive
there too.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, List, Mapping, Optional, Sequence, Tuple

from ..core.process import ProcessFactory, ProcessId
from ..core.values import MaybeValue
from ..protocols.twostep import ProposeRequest
from ..sim.rounds import synchronous_run, two_step_deciders
from ..sim.simulation import Simulation
from ..sim.latency import FixedLatency
from ..sim.failures import CrashPlan
from ..sim.events import prefer_sender

#: Builds a process factory for one task-protocol run: takes the initial
#: configuration and the faulty set (the latter so the harness can hand the
#: protocol an Ω oracle consistent with the run's crash pattern).
TaskFactoryBuilder = Callable[
    [Mapping[ProcessId, MaybeValue], AbstractSet[ProcessId]], ProcessFactory
]

#: Builds a process factory for one object-protocol run from the faulty set.
ObjectFactoryBuilder = Callable[[AbstractSet[ProcessId]], ProcessFactory]

#: The checked runs' message-delay bound ``Δ`` (the protocol factories'
#: default), the rounds each run lasts (a two-step decision happens by
#: ``2Δ``), and the values proposals are drawn from.
DELTA = 1.0
HORIZON_ROUNDS = 3
VALUES: Tuple[MaybeValue, ...] = (0, 1)


@dataclass
class TwoStepReport:
    """Outcome of a definition check."""

    satisfied: bool
    runs_examined: int
    failures: List[str] = field(default_factory=list)

    def describe(self) -> str:
        status = "SATISFIED" if self.satisfied else "VIOLATED"
        lines = [f"{status} after {self.runs_examined} runs"]
        lines.extend(f"  - {failure}" for failure in self.failures[:10])
        if len(self.failures) > 10:
            lines.append(f"  ... and {len(self.failures) - 10} more failures")
        return "\n".join(lines)


def _faulty_sets(n: int, e: int, limit: Optional[int]) -> List[Tuple[ProcessId, ...]]:
    sets = list(itertools.combinations(range(n), e))
    if limit is not None and len(sets) > limit:
        sets = random.Random(0).sample(sets, limit)
    return sets


def _configurations(n: int, limit: Optional[int]) -> List[Tuple[MaybeValue, ...]]:
    total = len(VALUES) ** n
    if limit is None or total <= limit:
        return list(itertools.product(VALUES, repeat=n))
    rng = random.Random(0)
    return [tuple(rng.choice(VALUES) for _ in range(n)) for _ in range(limit)]


def check_task_two_step(
    builder: TaskFactoryBuilder,
    n: int,
    e: int,
    max_faulty_sets: Optional[int] = None,
    max_configurations: Optional[int] = 64,
) -> TwoStepReport:
    """Decide Definition 4 for a task protocol (see module docstring)."""
    report = TwoStepReport(satisfied=True, runs_examined=0)
    for faulty in _faulty_sets(n, e, max_faulty_sets):
        faulty_set = set(faulty)
        correct = [pid for pid in range(n) if pid not in faulty_set]

        # Item 1: every initial configuration, some process two-step.
        for config in _configurations(n, max_configurations):
            proposals = {pid: config[pid] for pid in range(n)}
            found = False
            for preference in _preference_order(proposals, correct):
                run = synchronous_run(
                    builder(proposals, faulty_set),
                    n,
                    faulty=faulty_set,
                    delta=DELTA,
                    horizon_rounds=HORIZON_ROUNDS,
                    prefer=preference,
                    proposals=proposals,
                )
                report.runs_examined += 1
                if two_step_deciders(run, DELTA):
                    found = True
                    break
            if not found:
                report.satisfied = False
                report.failures.append(
                    f"item 1: E={sorted(faulty_set)}, config={config}: "
                    "no schedule yielded a two-step decision"
                )

        # Item 2: same-value configurations, every correct process two-step.
        for value in VALUES:
            proposals = {pid: value for pid in range(n)}
            for target in correct:
                found = False
                for preference in [target] + [p for p in correct if p != target] + [None]:
                    run = synchronous_run(
                        builder(proposals, faulty_set),
                        n,
                        faulty=faulty_set,
                        delta=DELTA,
                        horizon_rounds=HORIZON_ROUNDS,
                        prefer=preference,
                        proposals=proposals,
                    )
                    report.runs_examined += 1
                    if target in two_step_deciders(run, DELTA):
                        found = True
                        break
                if not found:
                    report.satisfied = False
                    report.failures.append(
                        f"item 2: E={sorted(faulty_set)}, value={value!r}: "
                        f"process {target} has no two-step run"
                    )
    return report


def _preference_order(
    proposals: Mapping[ProcessId, MaybeValue], correct: Sequence[ProcessId]
) -> List[Optional[ProcessId]]:
    """Candidate schedules, most promising first.

    For value-ordered fast paths the winning schedule prefers the correct
    process with the highest proposal, so sort preferences by descending
    proposal value; finish with FIFO.
    """
    ranked = sorted(correct, key=lambda pid: (proposals[pid],), reverse=True)
    return list(ranked) + [None]


def check_object_two_step(
    builder: ObjectFactoryBuilder,
    n: int,
    e: int,
    max_faulty_sets: Optional[int] = None,
) -> TwoStepReport:
    """Decide Definition A.1 for an object protocol.

    Each ``propose(v)`` reaches its process as a
    :class:`repro.protocols.twostep.ProposeRequest`.
    """
    report = TwoStepReport(satisfied=True, runs_examined=0)
    for faulty in _faulty_sets(n, e, max_faulty_sets):
        faulty_set = set(faulty)
        correct = [pid for pid in range(n) if pid not in faulty_set]
        for value in VALUES:
            for target in correct:
                # Item 1: only `target` proposes.
                run = _object_run(builder, n, faulty_set, {target: value}, target)
                report.runs_examined += 1
                if target not in two_step_deciders(run, DELTA):
                    report.satisfied = False
                    report.failures.append(
                        f"item 1: E={sorted(faulty_set)}, v={value!r}: solo "
                        f"proposer {target} did not decide by 2Δ"
                    )
                # Item 2: every correct process proposes `value` at round 1.
                run = _object_run(
                    builder, n, faulty_set, {pid: value for pid in correct}, target
                )
                report.runs_examined += 1
                if target not in two_step_deciders(run, DELTA):
                    report.satisfied = False
                    report.failures.append(
                        f"item 2: E={sorted(faulty_set)}, v={value!r}: "
                        f"process {target} did not decide by 2Δ"
                    )
    return report


def _object_run(
    builder: ObjectFactoryBuilder,
    n: int,
    faulty_set: AbstractSet[ProcessId],
    invocations: Mapping[ProcessId, MaybeValue],
    prefer: ProcessId,
):
    simulation = Simulation(
        builder(faulty_set),
        n,
        latency=FixedLatency(DELTA),
        crashes=CrashPlan.at_start(faulty_set),
        delivery_priority=prefer_sender(prefer),
    )
    for pid, value in invocations.items():
        simulation.inject(0.0, pid, ProposeRequest(value))
        simulation.run_record.proposals[pid] = value
    return simulation.run(until=HORIZON_ROUNDS * DELTA)
