"""Verification tooling benchmarks (not a paper experiment).

Times the heavyweight correctness machinery so regressions are visible:
the bounded exhaustive explorer (states/second, a full exhaustive proof,
and an exhaustive search that reaches a recovery ballot from the root),
the adversarial fuzzer (schedules/second, serial and sharded),
the Appendix B witnesses, and the Definition 4 checker.

The throughput benches gate against ``baseline_verification.json`` —
numbers recorded from this implementation on a CI-class machine. A run
below half the recorded baseline fails: that is a >2× regression in the
verification engine, which is exactly the kind of slowdown that
otherwise silently doubles every safety proof in the suite. Regenerate
the baseline with ``python benchmarks/bench_verification.py --update``
after an intentional engine change.
"""

import json
import pathlib

from repro.bounds import fuzz_safety, object_lower_bound_witness, task_lower_bound_witness
from repro.checks import check_task_two_step, twostep_task_builder
from repro.checks.explore import explore
from repro.omega import static_omega_factory
from repro.protocols import ProposeRequest, twostep_object_factory, twostep_task_factory

from conftest import emit

BASELINE_PATH = pathlib.Path(__file__).parent / "baseline_verification.json"
#: Fail when measured throughput drops below baseline / REGRESSION_FACTOR.
REGRESSION_FACTOR = 2.0


def _baseline() -> dict:
    return json.loads(BASELINE_PATH.read_text())


def _check_regression(key: str, measured: float) -> None:
    floor = _baseline()[key] / REGRESSION_FACTOR
    assert measured >= floor, (
        f"{key}: {measured:,.0f}/s is below the regression floor "
        f"{floor:,.0f}/s (baseline {_baseline()[key]:,.0f}/s, "
        f"factor {REGRESSION_FACTOR}x) — the verification engine got "
        f">{REGRESSION_FACTOR}x slower"
    )


def _explorer_campaign(workers: int = 1):
    """The E2 task-variant configuration the acceptance targets track."""
    proposals = {0: 1, 1: 0, 2: 0}
    factory = twostep_task_factory(
        proposals, 1, 1, omega_factory=static_omega_factory(0)
    )
    return explore(
        factory, 3, proposals=proposals, timer_fires=0, workers=workers
    )


def _fuzz_campaign(workers: int = 1, schedules: int = 150):
    """The E2 fuzzing-arm configuration (n=6, f=e=2)."""
    n, f, e = 6, 2, 2
    proposals = {pid: pid % 3 for pid in range(n)}
    return fuzz_safety(
        lambda seed: twostep_task_factory(
            proposals, f, e, omega_factory=static_omega_factory(0)
        ),
        n,
        f,
        seeds=range(schedules),
        proposals=proposals,
        workers=workers,
    )


def bench_explorer_states_per_sec(once):
    """Explorer throughput on the E2 configuration, gated vs baseline."""
    report = once(_explorer_campaign)
    assert report.safe and report.exhaustive and report.metrics is not None
    emit(
        "verification_explorer_throughput",
        f"explorer: {report.metrics.describe()}",
    )
    _check_regression("explorer_states_per_sec", report.metrics.units_per_sec)


def bench_fuzz_schedules_per_sec(once):
    """Serial fuzzer throughput on the E2 configuration, gated vs baseline."""
    result = once(_fuzz_campaign)
    assert not result.found_violation and result.metrics is not None
    emit(
        "verification_fuzz_throughput",
        f"fuzzer: {result.metrics.describe()}",
    )
    _check_regression("fuzz_schedules_per_sec", result.metrics.units_per_sec)


def bench_fuzz_sharded_matches_serial(once):
    """Sharded campaign (workers=4): identical result, visible overhead."""
    sharded = once(_fuzz_campaign, workers=4, schedules=60)
    serial = _fuzz_campaign(workers=1, schedules=60)
    assert sharded == serial  # metrics excluded from equality by design
    emit(
        "verification_fuzz_sharded",
        f"fuzzer (4 workers): {sharded.metrics.describe()}",
    )


def bench_explorer_exhaustive_fast_path(once):
    """Exhaustive proof: every schedule of the n=3 fast path is safe."""
    proposals = {0: 1, 1: 0, 2: 0}
    factory = twostep_task_factory(
        proposals, 1, 1, omega_factory=static_omega_factory(0)
    )
    report = once(explore, factory, 3, proposals=proposals, timer_fires=0)
    emit("verification_explorer", report.describe())
    assert report.safe and report.exhaustive
    assert report.states_visited > 1000


def bench_explorer_recovery_ballot_from_root(once):
    """Exhaustive proof with no scripted prefix that reaches a recovery
    ballot: two proposers and one timer expiry in total, anywhere in the
    schedule, let Figure 1's ballot-1 recovery interleave with the
    contended fast path."""
    factory = twostep_object_factory(1, 1, omega_factory=static_omega_factory(0))
    bounds = dict(
        injections=[(0, ProposeRequest("x")), (2, ProposeRequest("y"))],
        timer_fires=1,
    )
    report = once(explore, factory, 3, **bounds)
    emit("verification_explorer_recovery_ballot", report.describe())
    assert report.safe and report.exhaustive, report.describe()
    # Pruning every state past ballot 0 leaves a small fraction of the
    # space: the proof above did explore ballots beyond the fast one.
    fast_only = explore(factory, 3, ballot_bound=0, **bounds)
    assert fast_only.safe and fast_only.exhaustive
    assert fast_only.states_visited * 100 < report.states_visited


def bench_task_witness(once):
    """The full Appendix B.1 construction (both splices + continuations)."""
    result = once(task_lower_bound_witness, 3, 3)
    assert result.violation_found


def bench_object_witness(once):
    """The full Appendix B.2 construction."""
    result = once(object_lower_bound_witness, 3, 3)
    assert result.violation_found


def bench_definition4_checker(once):
    """Definition 4 over every faulty set and 16 configurations (n=6)."""
    report = once(
        check_task_two_step,
        twostep_task_builder(2, 2),
        6,
        2,
        max_configurations=16,
    )
    assert report.satisfied


if __name__ == "__main__":
    import sys

    explorer_report = _explorer_campaign()
    fuzz_result = _fuzz_campaign()
    measured = {
        "explorer_states_per_sec": round(explorer_report.metrics.units_per_sec),
        "fuzz_schedules_per_sec": round(fuzz_result.metrics.units_per_sec),
    }
    if "--update" in sys.argv:
        BASELINE_PATH.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"baseline updated: {measured}")
    else:
        print(json.dumps(measured, indent=2))
