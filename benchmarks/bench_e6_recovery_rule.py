"""E6 — the recovery rule is exactly as strong as Lemma 7 / Lemma C.2.

Randomized protocol-reachable 1B quorums containing a genuine fast
decision: at the bound the selection rule recovers the decided value
every single time; one process below, counterexamples appear.
"""

from repro.analysis import EXPERIMENTS
from conftest import emit


def bench_e6_recovery_rule(once):
    entry = EXPERIMENTS["e6"]
    tables = once(entry.compute)
    emit(entry.results, entry.render(tables))
    (rows,) = tables
    for row in rows:
        if row["where"] == "at bound":
            assert row["recovery_failures"] == 0, row
    below = [r for r in rows if r["where"] == "below bound"]
    assert any(r["recovery_failures"] > 0 for r in below)
