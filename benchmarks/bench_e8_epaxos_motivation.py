"""E8 — the EPaxos observation that motivated the paper (§1).

EPaxos at n = 2f+1 commits conflict-free commands after two message
delays while sustaining e = ceil((f+1)/2) failures — seemingly beating
Lamport's 2e+f+1 bound, and sitting exactly on Theorem 6's object bound.
Latency degrades toward the slow path as the conflict rate grows.
"""

from repro.analysis import EXPERIMENTS
from conftest import emit


def bench_e8_epaxos_motivation(once):
    entry = EXPERIMENTS["e8"]
    tables = once(entry.compute)
    emit(entry.results, entry.render(tables))
    (rows,) = tables
    for row in rows:
        if row["conflict_rate"] == 0.0:
            assert row["fast_fraction"] == 1.0
            assert row["commit_mean"] == 2.0
        if row["conflict_rate"] == 1.0:
            assert row["commit_mean"] > 2.0
