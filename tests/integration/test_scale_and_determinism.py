"""Scale and determinism: bigger systems, bit-identical reruns."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import require_consensus
from repro.omega import lowest_correct_omega_factory
from repro.protocols import twostep_task_factory
from repro.sim import (
    CrashPlan,
    PartialSynchrony,
    RandomLatency,
    Simulation,
    synchronous_run,
)


class TestScale:
    def test_fifteen_processes_f7_e4(self):
        f, e = 7, 4
        n = max(2 * e + f, 2 * f + 1)  # 15
        proposals = {pid: 1000 + pid for pid in range(n)}
        faulty = set(range(e))
        factory = twostep_task_factory(
            proposals, f, e, omega_factory=lowest_correct_omega_factory(faulty)
        )
        run = synchronous_run(
            factory, n, faulty=faulty, prefer=n - 1, proposals=proposals
        )
        assert run.decision_time(n - 1) == 2.0
        require_consensus(run)

    def test_full_crash_budget_at_scale(self):
        f, e = 7, 4
        n = 15
        proposals = {pid: 1000 + pid for pid in range(n)}
        faulty = set(range(f))  # the full resilience budget
        factory = twostep_task_factory(
            proposals, f, e, omega_factory=lowest_correct_omega_factory(faulty)
        )
        run = synchronous_run(
            factory, n, faulty=faulty, proposals=proposals, horizon_rounds=40
        )
        require_consensus(run)

    def test_partial_synchrony_at_scale(self):
        f, e = 5, 3
        n = max(2 * e + f, 2 * f + 1)  # 11
        proposals = {pid: pid for pid in range(n)}
        factory = twostep_task_factory(
            proposals, f, e, omega_factory=lowest_correct_omega_factory(set())
        )
        sim = Simulation(
            factory,
            n,
            latency=PartialSynchrony(delta=1.0, gst=15.0, seed=9),
            proposals=proposals,
        )
        run = sim.run_until_all_decide(until=200.0)
        require_consensus(run)


class TestDeterminism:
    def _signature(self, seed):
        f, e = 2, 2
        n = 6
        proposals = {pid: pid for pid in range(n)}
        factory = twostep_task_factory(
            proposals, f, e, omega_factory=lowest_correct_omega_factory({1})
        )
        sim = Simulation(
            factory,
            n,
            latency=RandomLatency(0.3, 2.5, seed=seed),
            crashes=CrashPlan.at(1.0, [1]),
            proposals=proposals,
        )
        run = sim.run(until=80.0)
        return tuple(repr(record) for record in run.records)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_same_seed_identical_trace(self, seed):
        assert self._signature(seed) == self._signature(seed)

    def test_decision_values_stable_across_seeds(self):
        # Different schedules may decide different (valid) values, but
        # every run must satisfy the spec.
        values = set()
        for seed in range(6):
            f, e, n = 2, 2, 6
            proposals = {pid: pid for pid in range(n)}
            factory = twostep_task_factory(
                proposals, f, e, omega_factory=lowest_correct_omega_factory(set())
            )
            sim = Simulation(
                factory,
                n,
                latency=RandomLatency(0.3, 2.5, seed=seed),
                proposals=proposals,
            )
            run = sim.run_until_all_decide(until=100.0)
            require_consensus(run)
            values |= run.decided_values()
        assert values <= set(proposals.values())
