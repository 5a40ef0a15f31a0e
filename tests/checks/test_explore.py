"""Tests for the bounded exhaustive state-space explorer.

Three capability classes are covered:

* **violation detection** — broken toy protocols are caught with a
  counterexample trail, and the full Theorem 5 violating schedule
  (scripted as a prefix, derived from the Appendix B.1 witness) is
  recognized on the real protocol. The explorer's adversary is only
  deliveries and timer fires: in crash-stop a crash only takes actions
  away (the crashed process is never activated again), so it yields no
  local history that the same schedule without it, with the process
  merely slow, does not;
* **exhaustive safety** — small configurations of Figure 1 are proven
  safe over every schedule within the bounds, including every
  interleaving of a full recovery ballot with in-flight fast votes;
* **bounded safety** — larger spaces report non-exhaustive cleanly.
"""

from dataclasses import dataclass

import pytest

from repro.checks.explore import explore
from repro.core import Context, Message, Process
from repro.omega import static_omega_factory
from repro.protocols import (
    ProposeRequest,
    TwoStepConfig,
    twostep_object_factory,
    twostep_task_factory,
)

BALLOT = "twostep:new_ballot"


class DecideOwn(Process):
    """Deliberately broken: every process decides its own proposal."""

    def __init__(self, pid, n, proposal):
        super().__init__(pid, n)
        self.proposal = proposal
        self.done = False

    def on_start(self, ctx: Context) -> None:
        ctx.decide(self.proposal)
        self.done = True

    def on_message(self, ctx: Context, sender, message) -> None:
        pass

    def snapshot(self):
        return {"done": self.done, "proposal": self.proposal}


class DecideForeign(Process):
    """Broken differently: decides a value nobody proposed, on message."""

    @dataclass(frozen=True)
    class Nudge(Message):
        pass

    def on_start(self, ctx: Context) -> None:
        if self.pid == 0:
            ctx.broadcast(DecideForeign.Nudge())

    def on_message(self, ctx: Context, sender, message) -> None:
        ctx.decide("out-of-thin-air")

    def snapshot(self):
        return {}


class DecideOnTimer(Process):
    """Broken once two timers fire: each process arms a timer at start
    and decides its own pid when it expires."""

    def on_start(self, ctx: Context) -> None:
        ctx.set_timer("decide", 1.0)

    def on_message(self, ctx: Context, sender, message) -> None:
        pass

    def on_timer(self, ctx: Context, name: str) -> None:
        ctx.decide(self.pid)

    def snapshot(self):
        return {}


class TestViolationDetection:
    def test_agreement_violation_found(self):
        proposals = {0: "a", 1: "b", 2: "b"}
        report = explore(
            lambda pid, n: DecideOwn(pid, n, proposals[pid]),
            3,
            proposals=proposals,
        )
        assert not report.safe
        assert "agreement" in report.violation
        assert report.counterexample == []  # broken at the very root
        assert "stopped at first violation" in report.describe()

    def test_validity_violation_found(self):
        report = explore(
            lambda pid, n: DecideForeign(pid, n),
            3,
            proposals={0: "a", 1: "a", 2: "a"},
        )
        assert not report.safe
        assert "validity" in report.violation
        assert any(action.kind == "deliver" for action in report.counterexample)

    def test_theorem5_violating_schedule_recognized(self):
        """The Appendix B.1 agreement violation as an explicit crash-free
        message schedule (22 deliveries + 1 timer fire) at n = 2e+f-1."""
        f = e = 2
        n = 5
        proposals = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}
        config = TwoStepConfig(f=f, e=e, enforce_bound=False)
        factory = twostep_task_factory(
            proposals, f, e, omega_factory=static_omega_factory(0), config=config
        )
        prefix = [
            # σ's synchronous rounds: p4's Propose(1) is accepted by 2, 3;
            # p4 itself votes p3's identical value. Two 2Bs + the implicit
            # self-vote give p4 its n-e = 3 supporters: it decides 1.
            ("deliver", (4, 2, "Propose")),
            ("deliver", (4, 3, "Propose")),
            ("deliver", (3, 4, "Propose")),
            ("deliver", (2, 4, "TwoB")),
            ("deliver", (3, 4, "TwoB")),
            # σ′'s rounds: p0 and p1 vote p2's value 0.
            ("deliver", (2, 0, "Propose")),
            ("deliver", (2, 1, "Propose")),
            # The recovery ballot: leader 0 hears exactly {0, 1, 3} — a
            # quorum in which value 0 holds 2 > n-f-e = 1 surviving votes
            # while the fast-decided 1 holds exactly 1. The rule picks 0.
            ("fire", (0, BALLOT)),
            ("deliver", (0, 0, "OneA")),
            ("deliver", (0, 1, "OneA")),
            ("deliver", (0, 3, "OneA")),
            ("deliver", (0, 0, "OneB")),
            ("deliver", (1, 0, "OneB")),
            ("deliver", (3, 0, "OneB")),
            ("deliver", (0, 0, "TwoA")),
            ("deliver", (0, 1, "TwoA")),
            ("deliver", (0, 3, "TwoA")),
            ("deliver", (0, 0, "TwoB")),
            ("deliver", (1, 0, "TwoB")),
            ("deliver", (3, 0, "TwoB")),
        ]
        report = explore(
            factory,
            n,
            proposals=proposals,
            ballot_bound=5,
            timer_fires=0,
            max_states=10,
            prefix=prefix,
        )
        assert not report.safe
        assert "agreement" in report.violation

    def test_same_schedule_is_safe_at_the_bound(self):
        """The identical adversary strategy at n = 2e+f cannot violate:
        the sixth process pads every quorum, so the recovery rule sees
        the fast value above threshold. (The schedule is re-derived for
        n=6; the leader's quorum is {0, 1, 3} plus its own report and
        the rule must select the fast-decided value 1.)"""
        f = e = 2
        n = 6
        proposals = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
        factory = twostep_task_factory(
            proposals, f, e, omega_factory=static_omega_factory(0)
        )
        # p4 needs n-e-1 = 3 foreign votes now: 2, 3, 5.
        prefix = [
            ("deliver", (4, 2, "Propose")),
            ("deliver", (4, 3, "Propose")),
            ("deliver", (4, 5, "Propose")),
            ("deliver", (3, 4, "Propose")),
            ("deliver", (2, 4, "TwoB")),
            ("deliver", (3, 4, "TwoB")),
            ("deliver", (5, 4, "TwoB")),
            ("deliver", (2, 0, "Propose")),
            ("deliver", (2, 1, "Propose")),
            ("fire", (0, BALLOT)),
        ]
        report = explore(
            factory,
            n,
            proposals=proposals,
            ballot_bound=6,
            timer_fires=0,
            max_states=8_000,  # bounded: the n=6 space is large; 8k states
            prefix=prefix,  #     of it explored in a few seconds suffice here
        )
        # Bounded or exhaustive, no violation may surface.
        assert report.safe, report.describe()


class TestExhaustiveSafety:
    def test_task_n3_fast_path_every_schedule(self):
        proposals = {0: 1, 1: 0, 2: 0}
        factory = twostep_task_factory(
            proposals, 1, 1, omega_factory=static_omega_factory(0)
        )
        report = explore(factory, 3, proposals=proposals, timer_fires=0)
        assert report.safe and report.exhaustive
        assert report.states_visited > 1000

    def test_task_n3_recovery_ballot_every_interleaving(self):
        """Drain the Propose wave, withhold the fast votes, open a ballot:
        every interleaving of the ballot with the in-flight fast votes —
        including late fast decisions — is explored exhaustively."""
        proposals = {0: 1, 1: 0, 2: 0}
        factory = twostep_task_factory(
            proposals, 1, 1, omega_factory=static_omega_factory(0)
        )
        prefix = [
            ("deliver", (s, r, "Propose"))
            for s in range(3)
            for r in range(3)
            if s != r
        ]
        prefix += [("fire", (0, BALLOT))]
        report = explore(
            factory,
            3,
            proposals=proposals,
            ballot_bound=3,
            timer_fires=0,
            max_states=100_000,
            prefix=prefix,
        )
        assert report.safe and report.exhaustive, report.describe()

    def test_object_n3_solo_proposer_every_schedule(self):
        factory = twostep_object_factory(
            1, 1, omega_factory=static_omega_factory(0)
        )
        report = explore(
            factory,
            3,
            injections=[(2, ProposeRequest("x"))],
            timer_fires=0,
        )
        assert report.safe and report.exhaustive

    def test_object_n3_two_proposers_every_schedule(self):
        factory = twostep_object_factory(
            1, 1, omega_factory=static_omega_factory(0)
        )
        report = explore(
            factory,
            3,
            injections=[(0, ProposeRequest("x")), (2, ProposeRequest("y"))],
            timer_fires=0,
            max_states=300_000,
        )
        assert report.safe and report.exhaustive, report.describe()


class TestBounds:
    def test_state_cap_reported_as_non_exhaustive(self):
        proposals = {0: 1, 1: 0, 2: 0}
        factory = twostep_task_factory(
            proposals, 1, 1, omega_factory=static_omega_factory(0)
        )
        report = explore(
            factory, 3, proposals=proposals, timer_fires=2, max_states=50
        )
        assert report.safe and not report.exhaustive
        assert "state cap" in report.describe()

    def test_timer_fires_bounds_the_whole_schedule(self):
        # One expiry in total, whichever process it hits: a single
        # decision, never two. A budget per process would let two timers
        # fire and two different pids be decided.
        report = explore(lambda pid, n: DecideOnTimer(pid, n), 3, timer_fires=1)
        assert report.safe and report.exhaustive, report.describe()
        two = explore(lambda pid, n: DecideOnTimer(pid, n), 3, timer_fires=2)
        assert not two.safe and "agreement" in two.violation
        assert [action.kind for action in two.counterexample] == ["fire", "fire"]

    def test_bad_prefix_step_rejected(self):
        from repro.core import SchedulerError

        proposals = {0: 1, 1: 0, 2: 0}
        factory = twostep_task_factory(
            proposals, 1, 1, omega_factory=static_omega_factory(0)
        )
        with pytest.raises(SchedulerError, match="matched no pending"):
            explore(
                factory,
                3,
                proposals=proposals,
                prefix=[("deliver", (0, 0, "NoSuchMessage"))],
            )
        with pytest.raises(SchedulerError, match="unarmed timer"):
            explore(
                factory,
                3,
                proposals=proposals,
                prefix=[("fire", (0, "nonexistent"))],
            )


class TestMaxStatesPoppedCheck:
    def test_state_hitting_the_cap_is_still_checked(self):
        """The popped state that exhausts `max_states` gets safety-checked
        before the cap is enforced; the old loop returned 'safe, bounded'
        with the violating state already in hand."""
        proposals = {0: "a", 1: "b", 2: "b"}
        report = explore(
            lambda pid, n: DecideOwn(pid, n, proposals[pid]),
            3,
            proposals=proposals,
            max_states=1,
        )
        assert not report.safe
        assert "agreement" in report.violation


class TestSignatureEngine:
    def test_sig_key_fast_path_matches_snapshot_canonicalization(self, monkeypatch):
        """TwoStepProcess.sig_key() must induce exactly the same state
        partition as the generic canonical(snapshot()) path: equal visited
        counts on an exhaustive run, with and without the fast path."""
        from repro.protocols.twostep import TwoStepProcess

        proposals = {0: 1, 1: 0, 2: 0}
        factory = twostep_task_factory(
            proposals, 1, 1, omega_factory=static_omega_factory(0)
        )
        fast = explore(factory, 3, proposals=proposals, timer_fires=0)
        monkeypatch.delattr(TwoStepProcess, "sig_key")
        slow = explore(factory, 3, proposals=proposals, timer_fires=0)
        assert fast.states_visited == slow.states_visited
        assert fast.exhaustive and slow.exhaustive

    def test_metrics_attached(self):
        proposals = {0: 1, 1: 0, 2: 0}
        factory = twostep_task_factory(
            proposals, 1, 1, omega_factory=static_omega_factory(0)
        )
        report = explore(factory, 3, proposals=proposals, timer_fires=0)
        metrics = report.metrics
        assert metrics is not None and metrics.kind == "explore"
        assert metrics.units == report.states_visited
        assert metrics.units_per_sec > 0
        assert 0.0 < metrics.dedup_hit_rate < 1.0
        assert metrics.max_depth > 0 and metrics.max_frontier > 0


class TestShardedExploration:
    def test_workers_two_same_verdict_with_per_worker_metrics(self):
        proposals = {0: 1, 1: 0, 2: 0}
        factory = twostep_task_factory(
            proposals, 1, 1, omega_factory=static_omega_factory(0)
        )
        serial = explore(factory, 3, proposals=proposals, timer_fires=0)
        sharded = explore(
            factory, 3, proposals=proposals, timer_fires=0, workers=2
        )
        assert sharded.safe and sharded.exhaustive
        assert serial.safe and serial.exhaustive
        assert sharded.metrics.workers == 2
        assert len(sharded.metrics.per_worker) == 2

    def test_workers_find_the_same_violation(self):
        proposals = {0: "a", 1: "a", 2: "a"}
        serial = explore(
            lambda pid, n: DecideForeign(pid, n), 3, proposals=proposals
        )
        sharded = explore(
            lambda pid, n: DecideForeign(pid, n),
            3,
            proposals=proposals,
            workers=2,
        )
        assert not serial.safe and not sharded.safe
        assert "validity" in sharded.violation

    def test_capped_count_holds_the_root_inside_the_cap(self):
        # Every shard pops the root first and counts it inside its own
        # max_states; the campaign counts it once. One worker therefore
        # reads the single-search figures, and each capped shard of a
        # wider run reads max_states + 1 with the root.
        proposals = {0: 0, 1: 1, 2: 0}
        factory = twostep_task_factory(proposals, 1, 1)
        bounds = dict(proposals=proposals, timer_fires=1, max_states=5000)
        one = explore(factory, 3, workers=1, **bounds)
        two = explore(factory, 3, workers=2, **bounds)
        assert (one.states_visited, one.exhaustive, one.safe) == (5001, False, True)
        assert (two.states_visited, two.exhaustive, two.safe) == (10001, False, True)
