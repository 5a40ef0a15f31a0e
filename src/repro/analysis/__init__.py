"""Statistics, table rendering, and the E1-E10 experiment harness."""

from .experiments import (
    e1_bounds_rows,
    e2_feasibility_rows,
    e2_fuzz_rows,
    e3_two_step_coverage_rows,
    e4_latency_vs_conflict_rows,
    e5_protocol_comparison_rows,
    e5_wan_rows,
    e6_recovery_rows,
    e7_message_rows,
    e8_epaxos_rows,
    e9_ablation_rows,
    e9_liveness_completion_demo,
    e10_smr_comparison_rows,
    e10_smr_rows,
    random_fast_decision_reports,
    verification_engine_summary,
)
from .figures import Series, bar_chart, line_chart, series
from .report import EXPERIMENTS, generate_report
from .stats import Summary, mean, percentile, ratio, summarize
from .tables import render_records, render_table

__all__ = [
    "EXPERIMENTS",
    "Series",
    "Summary",
    "e10_smr_comparison_rows",
    "e10_smr_rows",
    "e1_bounds_rows",
    "generate_report",
    "e2_feasibility_rows",
    "e2_fuzz_rows",
    "e3_two_step_coverage_rows",
    "e4_latency_vs_conflict_rows",
    "e5_protocol_comparison_rows",
    "e5_wan_rows",
    "e6_recovery_rows",
    "e7_message_rows",
    "e8_epaxos_rows",
    "e9_ablation_rows",
    "e9_liveness_completion_demo",
    "mean",
    "percentile",
    "random_fast_decision_reports",
    "ratio",
    "bar_chart",
    "line_chart",
    "render_records",
    "render_table",
    "series",
    "summarize",
    "verification_engine_summary",
]
