"""E1 — the bounds table (abstract + §1 of the paper).

Regenerates the process-count comparison across the (f, e) grid:
``2f+1`` (plain consensus), Lamport's fast bound, Theorem 5 (task),
Theorem 6 (object), and the savings the new bounds deliver.
"""

from repro.analysis import EXPERIMENTS
from conftest import emit


def bench_e1_bounds_table(once):
    entry = EXPERIMENTS["e1"]
    tables = once(entry.compute)
    emit(entry.results, entry.render(tables))
    (rows,) = tables
    # Paper shape: object <= task <= lamport with gaps of exactly one
    # where the fast term binds; the f=e=2 flagship saves 1 and 2.
    flagship = next(r for r in rows if r["f"] == 2 and r["e"] == 2)
    assert (flagship["lamport"], flagship["task(Thm5)"], flagship["object(Thm6)"]) == (
        7,
        6,
        5,
    )
    for row in rows:
        assert row["object(Thm6)"] <= row["task(Thm5)"] <= row["lamport"]
