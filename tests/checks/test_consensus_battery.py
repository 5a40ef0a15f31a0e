"""Tests for the consensus scenario battery itself."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.checks import (
    consensus_battery,
    crash_scenarios,
    failing_scenarios,
    run_scenario,
    shuffled_delivery,
    twostep_task_builder,
)
from repro.sim import CrashPlan, FixedLatency


class TestCrashScenarios:
    def test_includes_empty_plan(self):
        plans = crash_scenarios(5, 2, 1.0)
        assert any(len(plan) == 0 for plan in plans)

    def test_includes_every_single_crash(self):
        plans = crash_scenarios(5, 2, 1.0)
        single = {next(iter(plan.crashed_pids)) for plan in plans if len(plan) == 1}
        assert single == set(range(5))

    def test_respects_budget(self):
        for plan in crash_scenarios(5, 2, 1.0):
            assert len(plan) <= 2

    def test_f_zero_only_empty_and_singletons_skipped(self):
        plans = crash_scenarios(3, 0, 1.0)
        # with f=0 the non-empty plans would be over budget for the run
        # harness; crash_scenarios still lists singles for probing, but
        # none with more than one crash
        assert all(len(plan) <= 1 for plan in plans)

    def test_deterministic_given_seed(self):
        a = [repr(p) for p in crash_scenarios(6, 2, 1.0, seed=3)]
        b = [repr(p) for p in crash_scenarios(6, 2, 1.0, seed=3)]
        assert a == b


class TestShuffledDelivery:
    def test_deterministic(self):
        from repro.protocols.twostep import Propose

        policy = shuffled_delivery(5)
        assert policy(0, 1, Propose(1)) == policy(0, 1, Propose(1))

    def test_seed_changes_order(self):
        from repro.protocols.twostep import Propose

        values = {
            seed: [shuffled_delivery(seed)(s, r, Propose(1)) for s in range(4) for r in range(4)]
            for seed in (1, 2)
        }
        assert values[1] != values[2]

    def test_same_order_under_any_hash_seed(self):
        # Message kinds are strings, whose builtin hash() is salted per
        # process: the priorities must not depend on PYTHONHASHSEED.
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        program = (
            "from repro.checks import shuffled_delivery\n"
            "from repro.protocols.twostep import Propose, TwoB\n"
            "policy = shuffled_delivery(5)\n"
            "print([policy(s, r, m) for s in range(3) for r in range(3)"
            " for m in (Propose(1), TwoB(0, 1))])"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
                check=True,
            ).stdout
            for seed in ("1", "2")
        ]
        assert outputs[0] and outputs[0] == outputs[1]


class TestBattery:
    def test_scenario_names_unique(self):
        results = consensus_battery(
            twostep_task_builder(1, 1), 3, 1, async_seeds=(1,)
        )
        names = [r.name for r in results]
        assert len(names) == len(set(names))

    def test_green_battery_reports_no_failures(self):
        results = consensus_battery(
            twostep_task_builder(1, 1), 3, 1, async_seeds=(1,)
        )
        assert failing_scenarios(results) == []

    def test_run_scenario_returns_run(self):
        run = run_scenario(
            twostep_task_builder(1, 1),
            3,
            {0: 1, 1: 2, 2: 3},
            CrashPlan.none(),
            latency=FixedLatency(1.0),
            horizon=30.0,
        )
        assert run.decided_values()
