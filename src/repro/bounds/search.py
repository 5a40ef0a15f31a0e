"""Randomized adversarial schedule search (experiment E2's fuzzing arm).

Complements the structured Appendix B witnesses with a blunt instrument:
random asynchronous schedules with random crashes within the budget,
checked against Agreement and Validity. Above the bounds this is a safety
fuzzer — the test suite asserts thousands of schedules find nothing. Below
the bounds it occasionally stumbles on the same violations the structured
witnesses construct deliberately (the structured ones remain the
authoritative artifact; a fuzzer's silence proves nothing).

The schedule generator biases toward the shapes that break fast consensus:
it likes delivering proposal messages to partial audiences, crashing
proposers right after their fast decision, and firing ballot timers early.
A schedule ends early once every live process has decided — in the
crash-stop model decisions are final and further deliveries cannot add
decide records, so the post-decision suffix carries no signal.

A campaign is one code path at any worker count: its seed list is split
round-robin by position into ``workers`` shards, run over the one fork
runner (:func:`repro.verify.run_shards`; ``workers=1`` is the same shard
code, in-process), and the merge is deterministic:
``fuzz_safety(..., workers=k)`` returns the same result on the same seed
list, whatever ``k``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from ..core.process import ProcessFactory, ProcessId
from ..core.runs import Run
from ..core.specs import Violation, check_agreement, check_validity
from ..core.values import MaybeValue
from ..sim.arena import Arena
from ..verify.metrics import MetricsRecorder, VerificationMetrics
from ..verify.runner import run_shards

#: Sentinel distinguishing "message has no .value attribute" from
#: "message.value is None".
_MISSING = object()


@dataclass
class FuzzResult:
    """Aggregate of a fuzzing campaign.

    ``metrics`` is excluded from equality: two campaigns over the same
    seeds are *identical* when their schedules and verdicts agree, however
    long they took or however many workers ran them.
    """

    schedules_run: int
    violating_seeds: List[int] = field(default_factory=list)
    first_violation: Optional[List[Violation]] = None
    first_violating_run: Optional[Run] = None
    metrics: Optional[VerificationMetrics] = field(default=None, compare=False)

    @property
    def found_violation(self) -> bool:
        return bool(self.violating_seeds)


def random_adversarial_run(
    factory: ProcessFactory,
    n: int,
    f: int,
    seed: int,
    proposals: Optional[Mapping[ProcessId, MaybeValue]] = None,
    injections: Optional[Mapping[ProcessId, object]] = None,
    steps: int = 400,
) -> Run:
    """One random adversarial schedule.

    Starts processes in random order, then repeatedly picks among:
    deliver a random pending message (weight 6), fire a random armed
    timer (weight 2), crash a random live process while the budget allows
    (weight 1). *injections* maps pids to client messages (object
    protocols) delivered at random times.
    """
    rng = random.Random(seed)
    arena = Arena(factory, n, proposals=proposals)
    order = list(range(n))
    rng.shuffle(order)
    for pid in order:
        arena.start(pid)
    pending_injections = [
        (pid, message) for pid, message in (injections or {}).items()
    ]
    rng.shuffle(pending_injections)
    for pid, message in (injections or {}).items():
        if pid in arena.run_record.proposals:
            continue  # an explicitly passed proposal wins; never clobber it
        value = getattr(message, "value", _MISSING)
        if value is not _MISSING:
            arena.run_record.proposals[pid] = value

    # Hot loop. One weighted action per step, chosen by walking the
    # cumulative weights with a single rng.random() draw (what
    # ``rng.choices`` would do, minus its per-call list building). The
    # action menu only depends on *whether* each pool is non-empty, so the
    # (O(pool)) snapshots are built lazily, after an action is chosen.
    record = arena.run_record
    decisions = record.decisions  # live reference, not a copy
    crashed = arena.crashed
    pending_pool = arena.pending
    rng_random = rng.random
    live = list(range(n))
    crashes_left = f
    for _ in range(steps):
        if not pending_injections and len(decisions) >= len(live) and all(
            pid in decisions for pid in live
        ):
            break  # every live process decided; the suffix is pure churn

        w_inject = 4 if pending_injections else 0
        w_deliver = 6 if pending_pool else 0
        w_fire = 2 if arena.has_armed_timers() else 0
        w_crash = 1 if crashes_left > 0 and len(live) > 1 else 0
        total = w_inject + w_deliver + w_fire + w_crash
        if not total:
            break
        draw = rng_random() * total

        if draw < w_inject:
            pid, message = pending_injections.pop()
            if pid not in crashed:
                uid = arena.inject(pid, message)
                arena.deliver(arena.pending[uid])
        elif draw < w_inject + w_deliver:
            pm = rng.choice(arena.pending_list())
            if pm.receiver not in crashed:
                arena.deliver(pm)
        elif draw < w_inject + w_deliver + w_fire:
            pid, name = rng.choice(arena.armed_timers())
            arena.fire_timer(pid, name)
        else:
            pid = rng.choice(live)
            arena.crash(pid)
            live.remove(pid)
            crashes_left -= 1

    return arena.run_record


# ----------------------------------------------------------------------
# Campaigns: round-robin shards of the seed list over one runner.
# ----------------------------------------------------------------------


def _fuzz_shard(spec: dict, index: int):
    """Run every ``workers``-th schedule of the seed list from *index*.

    Returns ``(found, metrics)``; each ``found`` entry is ``(position,
    seed, violations, run_or_None)`` — the run is kept only for the
    shard's lowest violating position (all a merge can ever surface).
    """
    recorder = MetricsRecorder("fuzz")
    seeds = spec["seeds"]
    injections_for_seed = spec["injections_for_seed"]
    positions = range(index, len(seeds), spec["workers"])
    found: List[Tuple[int, int, List[Violation], Optional[Run]]] = []
    for position in positions:
        seed = seeds[position]
        injections = injections_for_seed(seed) if injections_for_seed else None
        run = random_adversarial_run(
            spec["factory_for_seed"](seed),
            spec["n"],
            spec["f"],
            seed,
            proposals=spec["proposals"],
            injections=injections,
            steps=spec["steps"],
        )
        violations = check_agreement(run) + check_validity(run)
        if violations:
            found.append((position, seed, violations, run if not found else None))
    recorder.units = len(positions)
    return found, recorder.finish()


def _merge_fuzz(parts, recorder: MetricsRecorder) -> FuzzResult:
    """Deterministically merge shard outputs (order = seed-list position)."""
    all_found = sorted(
        (entry for found, _ in parts for entry in found),
        key=lambda entry: entry[0],
    )
    result = FuzzResult(schedules_run=sum(metrics.units for _, metrics in parts))
    recorder.units = result.schedules_run
    for position, seed, violations, run in all_found:
        result.violating_seeds.append(seed)
        if result.first_violation is None:
            result.first_violation = violations
            result.first_violating_run = run
    result.metrics = recorder.merge([metrics for _, metrics in parts])
    return result


def fuzz_safety(
    factory_for_seed: Callable[[int], ProcessFactory],
    n: int,
    f: int,
    seeds: Sequence[int],
    proposals: Optional[Mapping[ProcessId, MaybeValue]] = None,
    injections_for_seed: Optional[Callable[[int], Mapping[ProcessId, object]]] = None,
    steps: int = 400,
    workers: int = 1,
) -> FuzzResult:
    """Run many random schedules; collect agreement/validity violations.

    *factory_for_seed* rebuilds a fresh factory per schedule (process state
    must not leak between runs). Termination is deliberately not checked:
    random schedules are not fair.

    The seed list is split round-robin into ``workers`` shards, run by
    :func:`repro.verify.run_shards` (a fork pool above one worker).
    Each schedule is a pure function of its seed, so the merged result is
    the same at any worker count: same ``violating_seeds`` order
    (seed-list order), same first violation. ``result.metrics`` carries
    throughput and the per-worker breakdown.
    """
    seeds = list(seeds)
    recorder = MetricsRecorder("fuzz")
    spec = {
        "factory_for_seed": factory_for_seed,
        "n": n,
        "f": f,
        "seeds": seeds,
        "proposals": proposals,
        "injections_for_seed": injections_for_seed,
        "steps": steps,
        "workers": max(1, min(workers, len(seeds))),
    }
    return _merge_fuzz(run_shards(_fuzz_shard, spec, spec["workers"]), recorder)
