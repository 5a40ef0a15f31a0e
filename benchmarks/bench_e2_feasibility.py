"""E2 — feasibility at and below the bounds (Theorems 5 and 6, both
directions).

At ``n = bound`` the executable Definitions 4 / A.1 are satisfied and the
consensus battery is green; at ``n = bound - 1`` the Appendix B witnesses
exhibit agreement violations.
"""

from repro.analysis import e2_feasibility_rows, render_records
from conftest import emit


def bench_e2_feasibility(once):
    rows = once(e2_feasibility_rows)
    emit(
        "e2_feasibility",
        render_records(rows, title="E2 — upper bounds hold, lower bounds bite"),
    )
    for row in rows:
        assert row["two_step_at_bound"], row
        assert row["battery_green"], row
        if row["violation_below_bound"] is not None:
            assert row["violation_below_bound"], row
