"""E7 — message complexity of a fast, crash-free, same-value run.

Counts every point-to-point message until all processes decide. Fast
Paxos disseminates fast votes to all learners (Θ(n²)); Figure 1 funnels
votes to the proposer and pays one Decide broadcast; Paxos (with
learner-broadcast votes) sits between.
"""

from repro.analysis import EXPERIMENTS
from conftest import emit


def bench_e7_message_complexity(once):
    entry = EXPERIMENTS["e7"]
    tables = once(entry.compute)
    emit(entry.results, entry.render(tables))
    (rows,) = tables
    by_protocol = {r["protocol"]: r for r in rows}
    assert by_protocol["twostep-task"]["n"] < by_protocol["fast-paxos"]["n"]
    for row in rows:
        assert row["all_decided_by"] <= 3.0
