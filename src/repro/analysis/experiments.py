"""The per-experiment harness (E1–E10 of DESIGN.md).

Each function computes one experiment's data and returns a list of row
dicts; ``benchmarks/`` wraps them in pytest-benchmark targets and
EXPERIMENTS.md records their output against the paper's claims. Keeping
the logic here (library, not benchmark files) makes every experiment
unit-testable and runnable from examples.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..bounds.formulas import (
    bounds_table,
    epaxos_fast_threshold,
    min_processes_lamport_fast,
    min_processes_object,
    min_processes_task,
)
from ..bounds.search import fuzz_safety
from ..bounds.witness_object import object_lower_bound_witness
from ..bounds.witness_task import task_lower_bound_witness
from ..checks.builders import (
    fast_paxos_builder,
    paxos_builder,
    twostep_object_builder,
    twostep_task_builder,
)
from ..checks.consensus import consensus_battery, failing_scenarios, shuffled_delivery
from ..checks.two_step import check_object_two_step, check_task_two_step
from ..core.process import ProcessId
from ..core.values import BOTTOM, is_bottom
from ..omega import lowest_correct_omega_factory, static_omega_factory
from ..protocols.epaxos import Command, Request, epaxos_factory
from ..protocols.selection import OneBReport, SelectionPolicy, select_value
from ..protocols.twostep import ProposeRequest, TwoStepConfig, twostep_object_factory
from ..sim.failures import CrashPlan
from ..sim.latency import FixedLatency
from ..sim.rounds import synchronous_run, two_step_deciders
from ..sim.simulation import Simulation
from ..smr import put_get_workload, run_kv_workload, smr_factory
from ..wan import (
    Deployment,
    predicted_commit_latency_twostep,
    measured_commit_latency_twostep,
    round_robin_deployment,
    seven_regions,
)
from .stats import summarize

#: The ``(f, e)`` the single-configuration experiments run at.
F, E = 2, 2
#: The ``(f, e)`` configurations E2 checks at and below their bounds.
E2_CONFIGS: Tuple[Tuple[int, int], ...] = ((2, 2), (3, 3))

# ----------------------------------------------------------------------
# E1 — the bounds table.
# ----------------------------------------------------------------------


def e1_bounds_rows(max_f: int = 5) -> List[Dict[str, object]]:
    """Theorem 5 / Theorem 6 vs Lamport's bound over an (f, e) grid."""
    rows = []
    for row in bounds_table(max_f):
        rows.append(
            {
                "f": row.f,
                "e": row.e,
                "2f+1": row.consensus,
                "lamport": row.lamport_fast,
                "task(Thm5)": row.task,
                "object(Thm6)": row.object_,
                "saved_task": row.savings_task,
                "saved_object": row.savings_object,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E2 — feasibility at and below the bounds.
# ----------------------------------------------------------------------


def e2_feasibility_rows() -> List[Dict[str, object]]:
    """At ``n = bound``: definition satisfied and consensus battery green.

    Below the bound (where the fast term binds): the Appendix B witness
    produces an agreement violation. The definition checkers sample 16
    configurations (task) and 16 faulty sets (object).
    """
    rows: List[Dict[str, object]] = []
    for f, e in E2_CONFIGS:
        n_task = min_processes_task(f, e)
        task_report = check_task_two_step(
            twostep_task_builder(f, e), n_task, e, max_configurations=16
        )
        battery_bad = failing_scenarios(
            consensus_battery(twostep_task_builder(f, e), n_task, f)
        )
        witness_applicable = 2 * e >= f + 2
        task_witness_violation = None
        if witness_applicable:
            task_witness_violation = task_lower_bound_witness(f, e).violation_found
        rows.append(
            {
                "formulation": "task",
                "f": f,
                "e": e,
                "n_at_bound": n_task,
                "two_step_at_bound": task_report.satisfied,
                "battery_green": not battery_bad,
                "violation_below_bound": task_witness_violation,
            }
        )

        n_obj = min_processes_object(f, e)
        object_report = check_object_two_step(
            twostep_object_builder(f, e), n_obj, e, max_faulty_sets=16
        )
        object_witness_applicable = 2 * e >= f + 3 and f >= 2
        object_witness_violation = None
        if object_witness_applicable:
            object_witness_violation = object_lower_bound_witness(f, e).violation_found
        rows.append(
            {
                "formulation": "object",
                "f": f,
                "e": e,
                "n_at_bound": n_obj,
                "two_step_at_bound": object_report.satisfied,
                "battery_green": True,  # object battery covered by task runs + tests
                "violation_below_bound": object_witness_violation,
            }
        )
    return rows


def e2_fuzz_rows(
    configs: Sequence[Tuple[int, int]] = E2_CONFIGS,
    schedules: int = 150,
    workers: int = 1,
) -> List[Dict[str, object]]:
    """E2's fuzzing arm: random adversarial schedules at the task bound.

    Structured witnesses prove the bounds bite *below*; this arm batters
    the protocol *at* the bound with random schedules and reports the
    campaign throughput. ``workers`` shards the seed range across a fork
    pool — the verdict columns are identical for any worker count.
    """
    from ..protocols.twostep import twostep_task_factory

    rows: List[Dict[str, object]] = []
    for f, e in configs:
        n = min_processes_task(f, e)
        proposals = {pid: pid % 3 for pid in range(n)}
        result = fuzz_safety(
            lambda seed, proposals=proposals, f=f, e=e: twostep_task_factory(
                proposals, f, e, omega_factory=static_omega_factory(0)
            ),
            n,
            f,
            seeds=range(schedules),
            proposals=proposals,
            workers=workers,
        )
        rows.append(
            {
                "f": f,
                "e": e,
                "n": n,
                "schedules": result.schedules_run,
                "violations": len(result.violating_seeds),
                "sched_per_s": round(result.metrics.units_per_sec, 1),
                "workers": workers,
            }
        )
    return rows


def verification_engine_summary(
    quick: bool = True, workers: int = 1
) -> Dict[str, object]:
    """Instrumented run of both verification engines on E2 configurations.

    Returns the raw :class:`~repro.checks.explore.ExplorationReport` and
    :class:`~repro.bounds.search.FuzzResult` (both carrying ``metrics``)
    so the report can render throughput, dedup rate, and worker breakdown.
    """
    from ..checks.explore import explore
    from ..protocols.twostep import twostep_task_factory

    proposals = {0: 1, 1: 0, 2: 0}
    factory = twostep_task_factory(
        proposals, 1, 1, omega_factory=static_omega_factory(0)
    )
    exploration = explore(
        factory, 3, proposals=proposals, timer_fires=0, workers=workers
    )

    n, f, e = 6, 2, 2
    fuzz_proposals = {pid: pid % 3 for pid in range(n)}
    fuzz = fuzz_safety(
        lambda seed: twostep_task_factory(
            fuzz_proposals, f, e, omega_factory=static_omega_factory(0)
        ),
        n,
        f,
        seeds=range(60 if quick else 300),
        proposals=fuzz_proposals,
        workers=workers,
    )
    return {"explore": exploration, "fuzz": fuzz}


# ----------------------------------------------------------------------
# E3 — two-step coverage across protocols.
# ----------------------------------------------------------------------


def e3_two_step_coverage_rows(
    f_values: Sequence[int] = (1, 2, 3),
) -> List[Dict[str, object]]:
    """Fraction of faulty sets E (|E| = e) admitting a 2Δ decision.

    Each protocol runs at its own minimal ``n`` for the same (f, e); the
    coverage is over all E of size e with distinct proposals everywhere
    (the hard case). Paxos's coverage is exactly the fraction of E that
    spare the initial leader; the fast protocols achieve 1.0 — at
    decreasing system sizes.
    """
    import itertools

    rows = []
    for f in f_values:
        e = epaxos_fast_threshold(f)
        e = min(e, f)
        protocols = [
            ("paxos", 2 * f + 1, paxos_builder(f)),
            ("fast-paxos", min_processes_lamport_fast(f, e), fast_paxos_builder(f, e)),
            ("twostep-task", min_processes_task(f, e), twostep_task_builder(f, e)),
        ]
        for name, n, builder in protocols:
            total = 0
            covered = 0
            proposals = {pid: 100 + pid for pid in range(n)}
            for faulty in itertools.combinations(range(n), e):
                total += 1
                faulty_set = set(faulty)
                found = False
                preferences = [
                    pid for pid in sorted(
                        (p for p in range(n) if p not in faulty_set),
                        key=lambda p: -proposals[p],
                    )
                ] + [None]
                for prefer in preferences:
                    run = synchronous_run(
                        builder(proposals, faulty_set),
                        n,
                        faulty=faulty_set,
                        horizon_rounds=3,
                        prefer=prefer,
                        proposals=proposals,
                    )
                    if two_step_deciders(run, 1.0):
                        found = True
                        break
                if found:
                    covered += 1
            rows.append(
                {
                    "f": f,
                    "e": e,
                    "protocol": name,
                    "n": n,
                    "coverage": covered / total if total else 1.0,
                }
            )
    return rows


# ----------------------------------------------------------------------
# E4 — decision latency vs proposal conflict.
# ----------------------------------------------------------------------


def e4_latency_vs_conflict_rows(
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
) -> List[Dict[str, object]]:
    """First-decision latency as 1, 2, 3 and 5 concurrent distinct
    proposals compete, at ``(F, E)``.

    Two schedule regimes per protocol:

    * ``best`` — the favourable schedule the e-two-step definition
      quantifies over (one proposer's messages handled first everywhere).
      Both fast protocols decide at ``2Δ`` for any number of distinct
      proposals; the point of Theorem 5/6 is that Figure 1 does so with
      one or two processes fewer.
    * ``random`` — seeded random same-instant delivery orders. Fast
      paths are existential, not universal: mixed arrival orders split
      votes (Figure 1) or collide acceptors (Fast Paxos) and the slow
      path finishes the job a few ``Δ`` later.
    """
    f, e = F, E
    rows = []
    n_two = min_processes_task(f, e)
    n_fast = min_processes_lamport_fast(f, e)
    for distinct in (1, 2, 3, 5):
        for name, n, builder in (
            ("twostep-task", n_two, twostep_task_builder(f, e)),
            ("fast-paxos", n_fast, fast_paxos_builder(f, e)),
        ):
            proposals = {
                pid: 100 + (pid if pid < distinct else 0) for pid in range(n)
            }
            best_proposer = max(range(n), key=lambda pid: proposals[pid])
            for schedule, runs in (
                ("best", [("prefer", best_proposer)]),
                ("random", [("seed", seed) for seed in seeds]),
            ):
                first_times = []
                fast_runs = 0
                for kind, parameter in runs:
                    run = synchronous_run(
                        builder(proposals, set()),
                        n,
                        faulty=(),
                        horizon_rounds=40,
                        prefer=parameter if kind == "prefer" else None,
                        delivery_priority=shuffled_delivery(parameter)
                        if kind == "seed"
                        else None,
                        proposals=proposals,
                    )
                    times = [
                        t
                        for t in (run.decision_time(pid) for pid in range(n))
                        if t is not None
                    ]
                    if not times:
                        continue
                    first = min(times)
                    first_times.append(first)
                    if first <= 2.0:
                        fast_runs += 1
                summary = summarize(first_times)
                rows.append(
                    {
                        "protocol": name,
                        "n": n,
                        "schedule": schedule,
                        "distinct_proposals": distinct,
                        "first_decision_mean": summary.mean if summary else None,
                        "first_decision_max": summary.maximum if summary else None,
                        "fast_fraction": fast_runs / len(runs),
                    }
                )
    return rows


# ----------------------------------------------------------------------
# E5 — WAN latency vs system size.
# ----------------------------------------------------------------------


def e5_wan_rows(f: int = F, e: int = E) -> List[Dict[str, object]]:
    """Proposer-perceived commit latency at n = object/task/Lamport bound.

    Same (f, e), same topology, growing ``n``: every extra process the
    stronger definition demands pushes the fast quorum to a farther site.
    Processes are placed round-robin over the sites.
    """
    topo = seven_regions()
    sizes = [
        ("object(2e+f-1)", min_processes_object(f, e)),
        ("task(2e+f)", min_processes_task(f, e)),
        ("lamport(2e+f+1)", min_processes_lamport_fast(f, e)),
    ]
    rows = []
    for label, n in sizes:
        deployment = round_robin_deployment(topo, n)
        predicted = []
        measured = []
        for proposer in range(n):
            predicted.append(predicted_commit_latency_twostep(deployment, proposer, e))
            got = measured_commit_latency_twostep(deployment, proposer, f, e)
            if got is not None:
                measured.append(got)
        pred = summarize(predicted)
        meas = summarize(measured)
        rows.append(
            {
                "bound": label,
                "n": n,
                "predicted_mean_ms": pred.mean if pred else None,
                "predicted_max_ms": pred.maximum if pred else None,
                "measured_mean_ms": meas.mean if meas else None,
                "measured_max_ms": meas.maximum if meas else None,
            }
        )
    return rows


def e5_protocol_comparison_rows(f: int = F, e: int = E) -> List[Dict[str, object]]:
    """Analytic WAN commit latency per protocol family, solo command.

    Each protocol runs at its minimal system size for the same (f, e) on
    the seven-region topology. The model is a single client command at a
    proxy: Figure 1 variants and Fast Paxos pay the round trip to their
    (n-e-1)-th nearest peer (formula validated against simulation in
    :func:`e5_wan_rows`); Paxos pays forward-to-leader + the leader's
    (n-f-1)-quorum round trip + the reply hop.
    """
    from ..wan.deployment import (
        predicted_commit_latency_fast_paxos,
        predicted_commit_latency_paxos,
    )

    topo = seven_regions()
    rows = []
    candidates = [
        ("paxos (leader@us-east)", 2 * f + 1, "paxos"),
        ("fast-paxos", min_processes_lamport_fast(f, e), "fast"),
        ("twostep-task", min_processes_task(f, e), "fast"),
        ("twostep-object", min_processes_object(f, e), "fast"),
    ]
    for label, n, family in candidates:
        deployment = round_robin_deployment(topo, n)
        if family == "paxos":
            latencies = [
                predicted_commit_latency_paxos(deployment, proxy, f, leader=0)
                for proxy in range(n)
            ]
        else:
            latencies = [
                predicted_commit_latency_fast_paxos(deployment, proxy, e)
                for proxy in range(n)
            ]
        summary = summarize(latencies)
        rows.append(
            {
                "protocol": label,
                "n": n,
                "mean_ms": summary.mean,
                "p95_ms": summary.p95,
                "worst_ms": summary.maximum,
            }
        )
    return rows


# ----------------------------------------------------------------------
# E6 — the recovery rule (Lemma 7 / Lemma C.2).
# ----------------------------------------------------------------------


def random_fast_decision_reports(
    rng: random.Random,
    n: int,
    f: int,
    e: int,
    object_semantics: bool,
) -> Tuple[List[OneBReport], int]:
    """A random 1B quorum consistent with a fast decision for value 10.

    Process 0 proposes the winning value ``v = 10`` and exactly ``n - e``
    processes (0 included, via its implicit vote) support it. The
    adversary gives other processes competing lower proposals and lets
    non-supporters either vote a competitor or abstain — respecting the
    protocol's reachability constraints:

    * a process never receives its own ``Propose``, so a proposer's
      recorded vote is never for its own value;
    * task semantics: a process only votes values ``>=`` its own input;
    * object semantics (red rule): a process with an input votes only
      that input — so a competitor's proposer cannot support the winner,
      and distinct-value proposers never vote at all;
    * if the winner's proposer lands inside the recovery quorum, it must
      have decided *before* answering the ``1A`` (having joined the slow
      ballot it could never complete the fast path afterwards), so its
      report carries ``decided = winner``.

    Returns the reports of a random ``n - f`` quorum plus the winner.
    """
    winner = 10
    proposer = 0
    fast_voters = {proposer} | set(rng.sample(range(1, n), n - e - 1))
    competitors: Dict[int, int] = {}
    for pid in range(1, n):
        roll = rng.random()
        if roll >= 0.7:
            continue
        value = rng.choice([rng.randint(1, 9), rng.randint(11, 19)])
        if value > winner and pid in fast_voters:
            # A supporter of the winner voted a value >= its own input
            # (task) / has no competing input at all (object); either way
            # its own proposal cannot exceed the winner.
            value = rng.randint(1, 9)
        if object_semantics and pid in fast_voters:
            continue  # red rule: a proposer cannot support someone else's value
        competitors[pid] = value
    # Concentrating votes on one competitor is what makes the narrow
    # below-bound ambiguities reachable; pick a primary target.
    primary = rng.choice(sorted(competitors)) if competitors else None
    quorum = set(rng.sample(range(n), n - f))
    states: Dict[int, OneBReport] = {}
    for pid in range(n):
        own = winner if pid == proposer else competitors.get(pid, BOTTOM)
        decided = BOTTOM
        if pid == proposer and pid in quorum:
            decided = winner  # see the docstring's reachability argument
        if pid in fast_voters and pid != proposer:
            vote, vote_proposer = winner, proposer
        else:
            vote, vote_proposer = BOTTOM, BOTTOM
            if pid not in fast_voters:
                if object_semantics and not is_bottom(own):
                    candidates = []  # its input differs from every other value
                else:
                    candidates = [
                        (value, owner)
                        for owner, value in competitors.items()
                        if owner != pid and (is_bottom(own) or value >= own)
                    ]
                if candidates and rng.random() < 0.85:
                    preferred = [
                        (value, owner)
                        for value, owner in candidates
                        if owner == primary
                    ]
                    if preferred and rng.random() < 0.7:
                        vote, vote_proposer = preferred[0]
                    else:
                        vote, vote_proposer = rng.choice(candidates)
        states[pid] = OneBReport(
            sender=pid,
            vbal=0,
            value=vote,
            proposer=vote_proposer,
            decided=decided,
            initial_value=own,
        )
    return [states[pid] for pid in sorted(quorum)], winner


def e6_recovery_rows(
    configs: Sequence[Tuple[int, int, bool]] = (
        (2, 2, False),
        (3, 3, False),
        (3, 3, True),
        (4, 4, True),
    ),
    trials: int = 2000,
) -> List[Dict[str, object]]:
    """Recovery soundness at the bound and failure counts below it; every
    row draws its scenarios from a fresh ``random.Random(7)``."""
    rows = []
    for f, e, object_semantics in configs:
        bound = (
            min_processes_object(f, e) if object_semantics else min_processes_task(f, e)
        )
        for n, label in ((bound, "at bound"), (bound - 1, "below bound")):
            if n - f <= 0 or n <= e:
                continue
            rng = random.Random(7)
            failures = 0
            for _ in range(trials):
                reports, winner = random_fast_decision_reports(
                    rng, n, f, e, object_semantics
                )
                chosen = select_value(reports, n, f, e, own_initial=BOTTOM)
                if chosen != winner:
                    failures += 1
            rows.append(
                {
                    "formulation": "object" if object_semantics else "task",
                    "f": f,
                    "e": e,
                    "n": n,
                    "where": label,
                    "trials": trials,
                    "recovery_failures": failures,
                }
            )
    return rows


# ----------------------------------------------------------------------
# E7 — message complexity.
# ----------------------------------------------------------------------


def e7_message_rows() -> List[Dict[str, object]]:
    """Messages sent until everyone decides at ``(F, E)``, fast path, no
    crashes."""
    f, e = F, E
    rows = []
    protocols = [
        ("paxos", 2 * f + 1, paxos_builder(f)),
        ("fast-paxos", min_processes_lamport_fast(f, e), fast_paxos_builder(f, e)),
        ("twostep-task", min_processes_task(f, e), twostep_task_builder(f, e)),
    ]
    for name, n, builder in protocols:
        proposals = {pid: 100 for pid in range(n)}  # same value: pure fast path
        run = synchronous_run(
            builder(proposals, set()),
            n,
            faulty=(),
            horizon_rounds=10,
            prefer=n - 1,
            proposals=proposals,
        )
        histogram = run.messages_by_kind()
        rows.append(
            {
                "protocol": name,
                "n": n,
                "total_messages": run.message_count(),
                "by_kind": ", ".join(
                    f"{kind}:{count}" for kind, count in sorted(histogram.items())
                ),
                "all_decided_by": max(
                    (run.decision_time(pid) or float("inf")) for pid in range(n)
                ),
            }
        )
    return rows


# ----------------------------------------------------------------------
# E8 — the EPaxos motivation.
# ----------------------------------------------------------------------


def e8_epaxos_rows(
    f_values: Sequence[int] = (1, 2, 3),
    conflict_rates: Sequence[float] = (0.0, 0.3, 1.0),
) -> List[Dict[str, object]]:
    """EPaxos commit latency at ``n = 2f + 1`` vs conflict rate.

    Conflict-free commands commit after two message delays even though
    ``n = 2f + 1 < 2e + f + 1`` for EPaxos's ``e = ceil((f+1)/2)`` — the
    observation that seemingly contradicts Lamport's bound. Each run
    submits 12 commands, which conflict at the given rate under
    ``random.Random(3)``.
    """
    rows = []
    for f in f_values:
        n = 2 * f + 1
        for rate in conflict_rates:
            rng = random.Random(3)
            simulation = Simulation(
                epaxos_factory(f), n, latency=FixedLatency(1.0)
            )
            submissions = []
            for index in range(12):
                key = "hot" if rng.random() < rate else f"k{index}"
                command = Command(key, "put", index, f"c{index}")
                proxy = index % n
                at = 0.0  # every command is submitted at once, all concurrent
                simulation.inject(at, proxy, Request(command))
                submissions.append((proxy, command, at))
            simulation.run(until=60.0)
            latencies = []
            fast = 0
            for proxy, command, at in submissions:
                replica = simulation.processes[proxy]
                instance = next(
                    (
                        iid
                        for iid, st in replica.instances.items()
                        if st.command is not None
                        and st.command.command_id == command.command_id
                        and iid[0] == proxy
                    ),
                    None,
                )
                if instance is None:
                    continue
                latency = replica.commit_latency(instance, at)
                if latency is None:
                    continue
                latencies.append(latency)
                if latency <= 2.0:
                    fast += 1
            summary = summarize(latencies)
            rows.append(
                {
                    "f": f,
                    "n": n,
                    "e_sustained": epaxos_fast_threshold(f),
                    "conflict_rate": rate,
                    "commit_mean": summary.mean if summary else None,
                    "commit_max": summary.maximum if summary else None,
                    "fast_fraction": fast / len(latencies) if latencies else None,
                }
            )
    return rows


# ----------------------------------------------------------------------
# E9 — ablations of Figure 1's design choices.
# ----------------------------------------------------------------------


def e9_ablation_rows(trials: int = 1500) -> List[Dict[str, object]]:
    """Disable each ingredient at ``(F, E)``; report which guarantee breaks.

    ``recovery_failures`` counts Lemma-7 violations over random
    fast-decision scenarios at ``n = 2e + f`` (task semantics, drawn
    from ``random.Random(11)``) and at ``n = 2e + f - 1`` (object
    semantics, ``random.Random(12)``): any non-zero count is a latent
    agreement violation. ``two_step_ok`` runs the Definition 4 checker
    (sampled).
    """
    f, e = F, E
    n = min_processes_task(f, e)
    n_object = min_processes_object(f, e)
    ablations = [
        ("paper (none)", SelectionPolicy(), True),
        ("no proposer exclusion (R=Q)", SelectionPolicy(use_proposer_exclusion=False), True),
        ("min tie-break", SelectionPolicy(max_tie_break=False), True),
        ("no value-ordered fast path", SelectionPolicy(), False),
    ]
    rows = []
    for label, policy, value_ordered in ablations:
        config = TwoStepConfig(
            f=f,
            e=e,
            selection=policy,
            value_ordered_fast_path=value_ordered,
        )
        # Recovery soundness under this policy. Without the value-ordered
        # fast path the vote patterns themselves change (any value may be
        # accepted over any proposal), modeled by lifting the value-order
        # constraint in the scenario generator via task semantics with
        # shuffled competitor values above and below the winner.
        rng = random.Random(11)
        failures = 0
        for _ in range(trials):
            reports, winner = random_fast_decision_reports(rng, n, f, e, False)
            if not value_ordered:
                # First-come acceptance: competing proposals may exceed the
                # winner, which value ordering would have forbidden.
                reports = [
                    OneBReport(
                        sender=r.sender,
                        vbal=r.vbal,
                        value=(r.value + 20)
                        if not is_bottom(r.value) and r.value != winner and rng.random() < 0.5
                        else r.value,
                        proposer=r.proposer,
                        decided=r.decided,
                        initial_value=r.initial_value,
                    )
                    for r in reports
                ]
            chosen = select_value(reports, n, f, e, own_initial=BOTTOM, policy=policy)
            if chosen != winner:
                failures += 1
        # The R-exclusion is load-bearing specifically for the *object*
        # variant at n = 2e+f-1 (Lemma C.2): run the same fuzz under
        # object semantics at that size.
        rng = random.Random(12)
        object_failures = 0
        for _ in range(trials):
            reports, winner = random_fast_decision_reports(
                rng, n_object, f, e, True
            )
            chosen = select_value(
                reports, n_object, f, e, own_initial=BOTTOM, policy=policy
            )
            if chosen != winner:
                object_failures += 1
        report = check_task_two_step(
            twostep_task_builder(f, e, config=config),
            n,
            e,
            max_configurations=8,
            max_faulty_sets=6,
        )
        rows.append(
            {
                "ablation": label,
                "n": n,
                "two_step_ok": report.satisfied,
                "recovery_failures_task": failures,
                "recovery_failures_object": object_failures,
                "trials": trials,
            }
        )
    return rows


def e9_liveness_completion_demo() -> Dict[str, object]:
    """Show the 1B liveness completion is load-bearing for the object at
    ``(F, E)``.

    Scenario: the only proposer's ``Propose`` messages are delayed past
    everyone joining a slow ballot. With the completion the coordinator
    adopts the input reported in the proposer's 1B; without it the system
    stalls forever despite a correct proposer — a wait-freedom violation.
    """
    from ..sim.arena import Arena
    from ..protocols.twostep import (
        BALLOT_TIMER,
        Decide,
        OneA,
        OneB,
        Propose,
        TwoA,
        TwoB,
    )
    from ..bounds.driver import canonical_order

    f, e = F, E
    ballot_kinds = (OneA, OneB, TwoA, TwoB, Decide)
    n = min_processes_object(f, e)
    outcomes = {}
    for label, policy in (
        ("with completion", SelectionPolicy()),
        ("without completion", SelectionPolicy(liveness_completion=False)),
    ):
        config = TwoStepConfig(f=f, e=e, is_object=True, selection=policy)
        factory = twostep_object_factory(
            f, e, omega_factory=static_omega_factory(0), config=config
        )
        arena = Arena(factory, n)
        arena.start_all()
        uid = arena.inject(n - 1, ProposeRequest(5))
        arena.deliver(arena.pending[uid])
        arena.run_record.proposals[n - 1] = 5
        # Adversary: every Propose stays in flight forever while ballots
        # run — only ballot-protocol messages are delivered.
        for _ in range(40):
            if any(arena.has_decided(pid) for pid in range(n)):
                break
            batch = [
                pm
                for pm in arena.pending_messages()
                if isinstance(pm.message, ballot_kinds)
            ]
            if batch:
                for pm in sorted(batch, key=canonical_order()):
                    if pm.uid in arena.pending:
                        arena.deliver(pm)
                continue
            armed = {(p, nm) for p, nm, _ in arena.timers()}
            if (0, BALLOT_TIMER) in armed:
                arena.fire_timer(0, BALLOT_TIMER)
            else:
                break
        decided = [pid for pid in range(n) if arena.has_decided(pid)]
        outcomes[label] = (
            arena.run_record.decided_value(decided[0]) if decided else None
        )
    return {
        "with_completion_decides": outcomes["with completion"],
        "without_completion_decides": outcomes["without completion"],
    }


# ----------------------------------------------------------------------
# E10 — SMR end-to-end on a WAN.
# ----------------------------------------------------------------------


def e10_smr_rows(
    f: int = F,
    e: int = E,
    commands: int = 10,
    use_wan: bool = True,
) -> List[Dict[str, object]]:
    """Proxy-observed commit latency of the replicated KV service."""
    n = min_processes_object(f, e)
    if use_wan:
        deployment = round_robin_deployment(seven_regions(), n)
        latency = deployment.latency_model()
        delta = deployment.delta()
    else:
        deployment = None
        latency = FixedLatency(1.0)
        delta = 1.0
    factory = smr_factory(f, e, delta=delta)
    ops = put_get_workload(
        commands,
        keys=["alpha", "beta", "gamma"],
        proxies=list(range(n)),
        spacing=6 * delta,
    )
    outcome = run_kv_workload(
        factory, n, ops, until=(commands + 30) * 6 * delta, latency=latency
    )
    unfinished = set(outcome.unfinished)
    rows = []
    for pid in range(n):
        latencies = [
            outcome.commit_latency[op.command.command_id]
            for op in ops
            if op.proxy == pid and op.command.command_id in outcome.commit_latency
        ]
        summary = summarize(latencies)
        rows.append(
            {
                "proxy": pid,
                "site": deployment.site_of(pid) if deployment else "lan",
                "commands": len(latencies),
                "unfinished": sum(
                    1
                    for op in ops
                    if op.proxy == pid and op.command.command_id in unfinished
                ),
                "commit_mean": summary.mean if summary else None,
                "commit_max": summary.maximum if summary else None,
            }
        )
    rows.append(
        {
            "proxy": "ALL",
            "site": "-",
            "commands": len(outcome.commit_latency),
            "unfinished": len(unfinished),
            "commit_mean": summarize(list(outcome.commit_latency.values())).mean
            if outcome.commit_latency
            else None,
            "commit_max": max(outcome.commit_latency.values())
            if outcome.commit_latency
            else None,
        }
    )
    return rows


def e10_smr_comparison_rows() -> List[Dict[str, object]]:
    """Three full SMR stacks, same WAN, same workload (measured, not
    analytic), at ``(F, E)``: Figure 1's leaderless object SMR, Multi-Paxos
    with a fixed leader at site 0, and EPaxos. Two rounds of one solo
    (conflict-free) command per proxy at a time, spaced so each commits
    before the next arrives.
    """
    from ..smr.leader_log import multipaxos_factory

    f, e = F, E
    n = max(min_processes_object(f, e), 2 * f + 1)
    deployment = round_robin_deployment(seven_regions(), n)
    delta = deployment.delta()
    latency_model = deployment.latency_model()
    spacing = 6 * delta
    rows = []

    def run_workload(factory) -> Dict[str, float]:
        ops = []
        index = 0
        for round_index in range(2):
            for proxy in range(n):
                ops.append(
                    (
                        (round_index * n + proxy) * spacing,
                        proxy,
                        f"k{index}",  # distinct keys: conflict-free
                    )
                )
                index += 1
        from ..smr import KVCommand
        from ..smr.client import ClientOp

        client_ops = [
            ClientOp(at, proxy, KVCommand(op="put", key=key, value=1, command_id=key))
            for at, proxy, key in ops
        ]
        outcome = run_kv_workload(
            factory,
            n,
            client_ops,
            until=(len(client_ops) + 20) * spacing,
            latency=latency_model,
        )
        return outcome.commit_latency

    # Figure 1 object SMR (leaderless fast path).
    latencies = run_workload(smr_factory(f, e, delta=delta))
    summary = summarize(list(latencies.values()))
    rows.append(
        {
            "stack": "twostep-object SMR",
            "n": n,
            "commit_mean_ms": summary.mean if summary else None,
            "commit_max_ms": summary.maximum if summary else None,
        }
    )

    # Multi-Paxos (leader at us-east).
    latencies = run_workload(
        multipaxos_factory(f, delta=delta, omega_factory=static_omega_factory(0))
    )
    summary = summarize(list(latencies.values()))
    rows.append(
        {
            "stack": "multi-paxos SMR (leader@us-east)",
            "n": n,
            "commit_mean_ms": summary.mean if summary else None,
            "commit_max_ms": summary.maximum if summary else None,
        }
    )

    # EPaxos (leaderless, fast quorum f + floor((f+1)/2)).
    from ..protocols.epaxos import Command as ECommand

    simulation = Simulation(
        epaxos_factory(f, delta=delta), n, latency=latency_model
    )
    submissions = []
    index = 0
    for round_index in range(2):
        for proxy in range(n):
            at = (round_index * n + proxy) * spacing
            command = ECommand(f"k{index}", "put", 1, f"k{index}")
            simulation.inject(at, proxy, Request(command))
            submissions.append((proxy, at))
            index += 1
    simulation.run(until=(len(submissions) + 20) * spacing)
    epaxos_latencies = []
    for slot, (proxy, at) in enumerate(submissions):
        replica = simulation.processes[proxy]
        for iid, state in replica.instances.items():
            if iid[0] == proxy and state.committed_at is not None:
                if state.command is not None and state.command.command_id == f"k{slot}":
                    epaxos_latencies.append(state.committed_at - at)
    summary = summarize(epaxos_latencies)
    rows.append(
        {
            "stack": "epaxos SMR",
            "n": n,
            "commit_mean_ms": summary.mean if summary else None,
            "commit_max_ms": summary.maximum if summary else None,
        }
    )
    return rows
