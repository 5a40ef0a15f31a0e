"""Scenario batteries checking the consensus specification itself.

Where :mod:`repro.checks.two_step` checks the paper's *latency*
definitions, this module checks the underlying consensus task properties —
Validity, Agreement, Termination — across a battery of schedules: crash
patterns within the resilience budget, synchronous and partially
synchronous latency, and randomized same-instant delivery orders. The E2
feasibility experiment and the integration tests run these batteries for
every protocol at its minimal system size.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

from ..core.process import ProcessId
from ..core.runs import Run
from ..core.specs import Violation, check_consensus
from ..core.values import MaybeValue
from ..sim.events import DeliveryPriority
from ..sim.failures import CrashPlan
from ..sim.latency import FixedLatency, PartialSynchrony
from ..sim.simulation import Simulation
from .two_step import DELTA, TaskFactoryBuilder

#: The partially synchronous scenarios' global stabilization time, and the
#: number of size-``f`` crash sets a battery samples.
GST = 10.0
MAX_CRASH_SETS = 12


@dataclass
class ScenarioResult:
    """Spec-check outcome of one scenario run."""

    name: str
    violations: List[Violation]
    run: Run

    @property
    def ok(self) -> bool:
        return not self.violations


def shuffled_delivery(seed: int) -> DeliveryPriority:
    """Pseudo-random but deterministic same-instant delivery order.

    The priority of a message depends only on (seed, sender, receiver,
    kind), so the schedule is reproducible while differing across seeds —
    enough to shake out order dependence without true randomness. It is a
    CRC of that tuple's text, not ``hash()``: a ``str`` hash changes with
    ``PYTHONHASHSEED``, and the order must not.
    """

    def priority(sender: ProcessId, receiver: ProcessId, message) -> int:
        key = repr((seed, sender, receiver, message.kind))
        return zlib.crc32(key.encode()) % 997

    return priority


def crash_scenarios(n: int, f: int, delta: float, seed: int = 0) -> List[CrashPlan]:
    """A spread of crash plans within the budget: none, early, and late.

    Includes the empty plan, every single-crash plan at three different
    times, and a sample of at most ``MAX_CRASH_SETS`` maximal (size-f) sets
    crashing at time 0 and mid-round-2 (the window in which fast-path votes
    are in flight — historically where fast consensus protocols break).
    """
    plans = [CrashPlan.none()]
    for pid in range(n):
        plans.append(CrashPlan.at_start([pid]))
        plans.append(CrashPlan.at(0.5 * delta, [pid]))
        plans.append(CrashPlan.at(1.5 * delta, [pid]))
    if f >= 1:
        rng = random.Random(seed)
        combos = list(itertools.combinations(range(n), f))
        if len(combos) > MAX_CRASH_SETS:
            combos = rng.sample(combos, MAX_CRASH_SETS)
        for combo in combos:
            plans.append(CrashPlan.at_start(combo))
            staggered = {
                pid: rng.choice([0.0, 0.5, 1.0, 1.5, 2.5]) * delta for pid in combo
            }
            plans.append(CrashPlan(staggered))
    return plans


def run_scenario(
    builder: TaskFactoryBuilder,
    n: int,
    proposals: Mapping[ProcessId, MaybeValue],
    crashes: CrashPlan,
    latency=None,
    delivery_priority: Optional[DeliveryPriority] = None,
    horizon: float = 200.0,
) -> Run:
    """One spec-battery run: crash plan + latency + delivery order."""
    faulty = set(crashes.crashed_pids)
    simulation = Simulation(
        builder(proposals, faulty),
        n,
        latency=latency if latency is not None else FixedLatency(1.0),
        crashes=crashes,
        proposals=proposals,
        delivery_priority=delivery_priority,
    )
    return simulation.run_until_all_decide(until=horizon)


def consensus_battery(
    builder: TaskFactoryBuilder,
    n: int,
    f: int,
    async_seeds: Sequence[int] = (1, 2, 3),
) -> List[ScenarioResult]:
    """Run the full battery; returns one result per scenario.

    Process ``p`` proposes ``p + 100``. Termination is asserted for the
    processes that remain correct in each scenario; agreement and validity
    always.
    """
    proposals = {pid: pid + 100 for pid in range(n)}
    results: List[ScenarioResult] = []

    # Synchronous rounds under every crash plan.
    for index, plan in enumerate(crash_scenarios(n, f, DELTA)):
        run = run_scenario(
            builder, n, proposals, plan, latency=FixedLatency(DELTA), horizon=60 * DELTA
        )
        results.append(
            ScenarioResult(
                name=f"sync/crash[{index}]={plan!r}", violations=check_consensus(run), run=run
            )
        )

    # Synchronous rounds, shuffled same-instant delivery orders.
    for shuffle_seed in async_seeds:
        run = run_scenario(
            builder,
            n,
            proposals,
            CrashPlan.none(),
            latency=FixedLatency(DELTA),
            delivery_priority=shuffled_delivery(shuffle_seed),
            horizon=60 * DELTA,
        )
        results.append(
            ScenarioResult(
                name=f"sync/shuffle[{shuffle_seed}]",
                violations=check_consensus(run),
                run=run,
            )
        )

    # Partial synchrony: chaotic until GST, then Δ-bounded.
    for async_seed in async_seeds:
        latency = PartialSynchrony(delta=DELTA, gst=GST, seed=async_seed)
        run = run_scenario(
            builder,
            n,
            proposals,
            CrashPlan.none(),
            latency=latency,
            horizon=GST + 80 * DELTA,
        )
        results.append(
            ScenarioResult(
                name=f"psync/seed[{async_seed}]", violations=check_consensus(run), run=run
            )
        )
        # ... and with a maximal crash at GST, the nastiest budgeted moment.
        plan = CrashPlan.at(GST, list(range(f)))
        run = run_scenario(
            builder, n, proposals, plan, latency=latency, horizon=GST + 80 * DELTA
        )
        results.append(
            ScenarioResult(
                name=f"psync/seed[{async_seed}]/crash-at-gst",
                violations=check_consensus(run),
                run=run,
            )
        )

    return results


def failing_scenarios(results: Sequence[ScenarioResult]) -> List[ScenarioResult]:
    """The subset of battery results with violations (empty = all green)."""
    return [result for result in results if not result.ok]
