"""E9 — ablations: every design choice of Figure 1 is load-bearing.

Disables, one at a time: the proposer-exclusion set R (line 47), the max
tie-break (line 58), the value-ordered fast path (line 11), and the 1B
liveness completion; reports which guarantee each one carries.
"""

from repro.analysis import EXPERIMENTS
from conftest import emit


def bench_e9_ablations(once):
    entry = EXPERIMENTS["e9"]
    tables = once(entry.compute)
    emit(entry.results, entry.render(tables))
    rows, demo = tables
    paper = next(r for r in rows if r["ablation"] == "paper (none)")
    assert paper["recovery_failures_task"] == 0
    assert paper["recovery_failures_object"] == 0
    for row in rows:
        if row["ablation"] != "paper (none)":
            assert (
                not row["two_step_ok"]
                or row["recovery_failures_task"] > 0
                or row["recovery_failures_object"] > 0
            )
    assert demo["without_completion_decides"] is None
