#!/usr/bin/env python3
"""Model-check the protocol: exhaustive safety, and the bound's edge.

Two demonstrations of the bounded exhaustive explorer:

1. **An exhaustive safety proof.** Every schedule of Figure 1's fast path
   at n = 3 (f = e = 1) — every interleaving of every message delivery —
   is enumerated and checked for Agreement and Validity. A clean report
   is a proof for this configuration, not a statistical claim. No crash
   moves are needed: a crashed process only stops acting, which the
   schedules where it is merely slow already cover.

2. **The Theorem 5 violation as a concrete schedule.** One process below
   the task bound (n = 2e+f-1 = 5), the Appendix B.1 agreement violation
   is just 22 message deliveries and one timer expiry — notably with NO
   crash events: in an asynchronous crash-stop system, a crashed process
   is indistinguishable from a slow one, so the adversary needs only
   delays. The explorer replays the schedule and reports the violation.
"""

from repro.checks.explore import explore
from repro.omega import static_omega_factory
from repro.protocols import TwoStepConfig, twostep_task_factory

BALLOT = "twostep:new_ballot"


def exhaustive_proof() -> None:
    print("1. Exhaustive safety at the bound (n = 3, f = e = 1)")
    print("-" * 60)
    proposals = {0: 1, 1: 0, 2: 0}
    factory = twostep_task_factory(
        proposals, 1, 1, omega_factory=static_omega_factory(0)
    )
    report = explore(factory, 3, proposals=proposals, timer_fires=0)
    print(f"   {report.describe()}")
    print("   Every fast-path schedule checked; none violates the spec.")
    if report.metrics is not None:
        print(f"   metrics: {report.metrics.describe()}")
    print()
    # ... and with a full recovery ballot interleaved with in-flight votes:
    prefix = [
        ("deliver", (s, r, "Propose")) for s in range(3) for r in range(3) if s != r
    ] + [("fire", (0, BALLOT))]
    report = explore(
        factory,
        3,
        proposals=proposals,
        ballot_bound=3,
        timer_fires=0,
        prefix=prefix,
        max_states=100_000,
    )
    print(f"   with one recovery ballot: {report.describe().splitlines()[0]}")
    print()


def violating_schedule() -> None:
    print("2. The Theorem 5 violation, below the bound (n = 5, f = e = 2)")
    print("-" * 60)
    proposals = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1}
    config = TwoStepConfig(f=2, e=2, enforce_bound=False)
    factory = twostep_task_factory(
        proposals, 2, 2, omega_factory=static_omega_factory(0), config=config
    )
    schedule = [
        ("deliver", (4, 2, "Propose")),
        ("deliver", (4, 3, "Propose")),
        ("deliver", (3, 4, "Propose")),
        ("deliver", (2, 4, "TwoB")),
        ("deliver", (3, 4, "TwoB")),  # p4 decides 1 on the fast path
        ("deliver", (2, 0, "Propose")),
        ("deliver", (2, 1, "Propose")),  # p0, p1 vote 0
        ("fire", (0, BALLOT)),  # leader 0 opens a recovery ballot...
        ("deliver", (0, 0, "OneA")),
        ("deliver", (0, 1, "OneA")),
        ("deliver", (0, 3, "OneA")),
        ("deliver", (0, 0, "OneB")),
        ("deliver", (1, 0, "OneB")),
        ("deliver", (3, 0, "OneB")),  # ...hears {0,1,3}: 0 has 2 votes > n-f-e
        ("deliver", (0, 0, "TwoA")),
        ("deliver", (0, 1, "TwoA")),
        ("deliver", (0, 3, "TwoA")),
        ("deliver", (0, 0, "TwoB")),
        ("deliver", (1, 0, "TwoB")),
        ("deliver", (3, 0, "TwoB")),  # leader decides 0 — against p4's 1
    ]
    report = explore(
        factory,
        5,
        proposals=proposals,
        ballot_bound=5,
        timer_fires=0,
        max_states=10,
        prefix=schedule,
    )
    print(f"   {report.describe()}")
    print()
    print("   Twenty deliveries, one timer, zero crashes — agreement gone.")
    print("   At n = 2e+f the same strategy fails (see Figure 1's Lemma 7);")
    print("   the tests replay both. That is what a tight bound looks like.")


def main() -> None:
    exhaustive_proof()
    violating_schedule()


if __name__ == "__main__":
    main()
