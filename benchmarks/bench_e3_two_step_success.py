"""E3 — two-step coverage across protocols (§2's observations).

Fraction of faulty sets E (|E| = e) for which an E-faulty synchronous run
deciding by 2Δ exists, with each protocol at its own minimal system size.
Paxos covers only the E sparing its initial leader; the fast protocols
cover everything — Figure 1 with fewer processes than Fast Paxos.
"""

from repro.analysis import EXPERIMENTS
from conftest import emit


def bench_e3_two_step_success(once):
    entry = EXPERIMENTS["e3"]
    tables = once(entry.compute)
    emit(entry.results, entry.render(tables))
    (rows,) = tables
    for row in rows:
        if row["protocol"] == "paxos":
            assert row["coverage"] < 1.0
        else:
            assert row["coverage"] == 1.0
    for f in (1, 2, 3):
        per_f = {r["protocol"]: r["n"] for r in rows if r["f"] == f}
        assert per_f["twostep-task"] <= per_f["fast-paxos"]


def bench_e3_registry_cross_check(once):
    """The metrics registry agrees with the run record about fast paths.

    E3's coverage numbers are computed from run records (decision times);
    the observability layer counts the same decisions through
    ``ctx.obs``. Under the favourable schedule the two must coincide:
    every 2Δ decider carries ``consensus.decisions_fast == 1``, everyone
    decides exactly once across fast/slow/learned, and the merged
    fast-path ratio is 1.0 — the same quantity ``repro stats`` reports
    for a live cluster.
    """
    from repro.obs import fast_path_ratio
    from repro.omega import static_omega_factory
    from repro.protocols import twostep_task_factory
    from repro.sim import FixedLatency, Simulation, prefer_sender, two_step_deciders

    f = e = 2
    n = 6  # Theorem 5: max{2e+f, 2f+1}
    proposals = {pid: 100 + pid for pid in range(n)}

    def simulate() -> Simulation:
        sim = Simulation(
            twostep_task_factory(
                proposals, f, e, omega_factory=static_omega_factory(0)
            ),
            n,
            latency=FixedLatency(1.0),
            delivery_priority=prefer_sender(n - 1),
            proposals=proposals,
        )
        sim.run(until=12.0)
        return sim

    sim = once(simulate)
    run = sim.run_record
    deciders = two_step_deciders(run, delta=1.0)
    assert deciders, "the favourable schedule must produce a 2-step decision"
    for pid in range(n):
        counters = sim.node_snapshot(pid)["counters"]
        fast = counters.get("consensus.decisions_fast", 0)
        slow = counters.get("consensus.decisions_slow", 0)
        learned = counters.get("consensus.decisions_learned", 0)
        decided = run.decision_time(pid) is not None
        assert (fast + slow + learned == 1) == decided
        if pid in deciders:
            # A decision by 2Δ can only be the ballot-0 fast path.
            assert fast == 1
    assert fast_path_ratio(sim.stats()["merged"]) == 1.0
