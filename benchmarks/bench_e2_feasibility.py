"""E2 — feasibility at and below the bounds (Theorems 5 and 6, both
directions).

At ``n = bound`` the executable Definitions 4 / A.1 are satisfied and the
consensus battery is green; at ``n = bound - 1`` the Appendix B witnesses
exhibit agreement violations.
"""

from repro.analysis import EXPERIMENTS
from conftest import emit


def bench_e2_feasibility(once):
    entry = EXPERIMENTS["e2"]
    tables = once(entry.compute)
    emit(entry.results, entry.render(tables))
    (rows,) = tables
    for row in rows:
        assert row["two_step_at_bound"], row
        assert row["battery_green"], row
        if row["violation_below_bound"] is not None:
            assert row["violation_below_bound"], row
