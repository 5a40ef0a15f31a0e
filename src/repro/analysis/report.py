"""The E1–E10 catalogue, and the one-shot reproduction report.

:data:`EXPERIMENTS` declares each experiment once: its tables (title, row
function, float digits, the arguments ``--quick`` passes, the figure drawn
under the rows), its note, the ``benchmarks/results/<results>.txt`` file
its text is checked in as, and the verdict the report gives it. Every
consumer renders from it: ``python -m repro experiment eN`` (and
``--json``, ``bounds``, ``all``), the ``benchmarks/bench_e*.py`` that
write the results files, and :func:`generate_report`. So ``python -m repro
experiment eN`` prints exactly the checked-in ``benchmarks/results/`` table.

``python -m repro report`` runs every experiment plus the instrumented
verification engines and renders a self-contained markdown report with
the tables, the ASCII figures, and a verdict line per experiment. This is
the artifact to attach to a reproduction claim: it is regenerated entirely
from code, so the numbers in it cannot drift from the implementation.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .experiments import (
    e1_bounds_rows,
    e2_feasibility_rows,
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
    verification_engine_summary,
)
from .figures import bar_chart, line_chart, series
from .tables import render_records

Rows = List[Dict[str, object]]

MISMATCH = "MISMATCH — see above"


@dataclass(frozen=True)
class Table:
    """One titled table: the function that computes its rows, their float
    digits, the arguments ``--quick`` passes instead of the function's
    defaults, and the figure drawn from the rows under the table."""

    title: str
    rows: Callable[..., Rows]
    digits: int = 1
    quick: Mapping[str, object] = field(default_factory=dict)
    figure: Optional[Callable[[Rows], str]] = None

    def render(self, rows: Rows) -> str:
        text = render_records(rows, title=self.title, float_digits=self.digits)
        return text if self.figure is None else f"{text}\n\n{self.figure(rows)}"


@dataclass(frozen=True)
class Note:
    """Text under an experiment's tables, rendered from what ``data()``
    returns."""

    data: Callable[[], Dict[str, object]]
    text: Callable[[Dict[str, object]], str]


@dataclass(frozen=True)
class Experiment:
    """One E table as every consumer prints it.

    :meth:`compute` returns each table's rows in order, then the note's
    data; :meth:`render`, :meth:`records` and :meth:`judge` take that
    tuple. ``holds``, if set, decides from it whether the report may give
    ``verdict`` or must read :data:`MISMATCH`.
    """

    results: str  # benchmarks/results/<results>.txt
    tables: Tuple[Table, ...]
    verdict: str
    holds: Optional[Callable[[Sequence[object]], bool]] = None
    note: Optional[Note] = None

    def compute(self, quick: bool = False) -> Tuple[object, ...]:
        computed = tuple(
            table.rows(**(table.quick if quick else {})) for table in self.tables
        )
        return computed if self.note is None else (*computed, self.note.data())

    def render(self, computed: Sequence[object]) -> str:
        parts = [table.render(rows) for table, rows in zip(self.tables, computed)]
        if self.note is not None:
            parts.append(self.note.text(computed[-1]))
        return "\n\n".join(parts)

    def records(self, computed: Sequence[object]) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "tables": {table.title: rows for table, rows in zip(self.tables, computed)}
        }
        if self.note is not None:
            payload["note"] = self.note.text(computed[-1])
        return payload

    def judge(self, computed: Sequence[object]) -> str:
        return self.verdict if self.holds is None or self.holds(computed) else MISMATCH


def _e2_holds(computed: Sequence[object]) -> bool:
    """Every at-bound check holds and every applicable witness (a row
    whose ``violation_below_bound`` is not ``None``) finds a violation."""
    (rows,) = computed
    return all(
        row["two_step_at_bound"]
        and row["battery_green"]
        and row["violation_below_bound"] is not False
        for row in rows
    )


def _e4_figure(rows: Rows) -> str:
    return line_chart(
        [
            series(
                f"{protocol}/{schedule}",
                [
                    (r["distinct_proposals"], r["first_decision_mean"])
                    for r in rows
                    if r["protocol"] == protocol and r["schedule"] == schedule
                ],
            )
            for protocol in ("twostep-task", "fast-paxos")
            for schedule in ("best", "random")
        ],
        title="Figure E4 — first decision (Δ) vs distinct proposals",
        x_label="concurrent distinct proposals",
        y_label="delay (Δ)",
    )


def _e5_figure(rows: Rows) -> str:
    return bar_chart(
        {f"{r['bound']} (n={r['n']})": r["measured_mean_ms"] for r in rows},
        title="Figure E5 — mean fast-path commit latency",
        unit=" ms",
    )


def _e8_figure(rows: Rows) -> str:
    return line_chart(
        [
            series(
                f"f={f}",
                [(r["conflict_rate"], r["commit_mean"]) for r in rows if r["f"] == f],
            )
            for f in sorted({r["f"] for r in rows})
        ],
        title="Figure E8 — EPaxos commit latency (Δ) vs conflict rate",
        x_label="conflict rate",
        y_label="delay (Δ)",
    )


def _e9_note(demo: Dict[str, object]) -> str:
    return (
        "liveness completion demo (object, delayed Propose):"
        f"\n  with completion: decides {demo['with_completion_decides']!r}"
        f"\n  without:         decides {demo['without_completion_decides']!r}"
    )


def _e10_figure(rows: Rows) -> str:
    return bar_chart(
        {r["stack"]: r["commit_mean_ms"] for r in rows},
        title="Figure E10 — mean commit latency by SMR stack",
        unit=" ms",
    )


#: E1–E10, keyed ``e1`` .. ``e10`` in order.
EXPERIMENTS: Dict[str, Experiment] = {
    "e1": Experiment(
        "e1_bounds_table",
        (Table("E1 — tight bounds per (f, e)", e1_bounds_rows, quick={"max_f": 4}),),
        "object ≤ task ≤ Lamport everywhere; savings of 1 and 2 where the "
        "fast term binds",
    ),
    "e2": Experiment(
        "e2_feasibility",
        (Table("E2 — upper bounds hold, lower bounds bite", e2_feasibility_rows),),
        "both bounds hold upward and bite downward",
        holds=_e2_holds,
    ),
    "e3": Experiment(
        "e3_two_step_success",
        (
            Table(
                "E3 — two-step coverage",
                e3_two_step_coverage_rows,
                digits=2,
                quick={"f_values": (1, 2)},
            ),
        ),
        "Paxos partial, fast protocols total — Figure 1 at fewer processes",
    ),
    "e4": Experiment(
        "e4_latency_vs_conflict",
        (
            Table(
                "E4 — latency vs conflict",
                e4_latency_vs_conflict_rows,
                digits=2,
                quick={"seeds": (1, 2)},
                figure=_e4_figure,
            ),
        ),
        "2Δ under the definitions' schedules; graceful slow path otherwise",
    ),
    "e5": Experiment(
        "e5_wan_latency",
        (
            Table("E5 — WAN commit latency (ms)", e5_wan_rows, figure=_e5_figure),
            Table(
                "E5b — per-protocol solo-command latency (analytic, ms)",
                e5_protocol_comparison_rows,
            ),
        ),
        "each extra process costs tens of ms; the object bound wins outright",
    ),
    "e6": Experiment(
        "e6_recovery_rule",
        (Table("E6 — recovery soundness", e6_recovery_rows, quick={"trials": 500}),),
        "zero failures at every bound; counterexamples one process below",
    ),
    "e7": Experiment(
        "e7_message_complexity",
        (Table("E7 — messages to decision", e7_message_rows),),
        "vote dissemination dominates Fast Paxos; Figure 1 funnels votes",
    ),
    "e8": Experiment(
        "e8_epaxos",
        (
            Table(
                "E8 — EPaxos at n = 2f+1",
                e8_epaxos_rows,
                digits=2,
                quick={"f_values": (1, 2)},
                figure=_e8_figure,
            ),
        ),
        "two-delay commits, conflict-free, at the object bound's size",
    ),
    "e9": Experiment(
        "e9_ablations",
        (Table("E9 — ablations of Figure 1", e9_ablation_rows, quick={"trials": 500}),),
        "every ingredient of Figure 1 is load-bearing",
        note=Note(e9_liveness_completion_demo, _e9_note),
    ),
    "e10": Experiment(
        "e10_smr_e2e",
        (
            Table("E10 — geo-replicated KV (ms)", e10_smr_rows, quick={"commands": 6}),
            Table(
                "E10b — full-stack comparison, same WAN + workload",
                e10_smr_comparison_rows,
                figure=_e10_figure,
            ),
        ),
        "measured full stacks land on the analytic predictions; leaderless "
        "fast paths beat the leader detour",
    ),
}


def _section(out: io.StringIO, title: str, body: str, verdict: str) -> None:
    out.write(f"## {title}\n\n```\n{body}\n```\n\n**Verdict:** {verdict}\n\n")


def generate_report(quick: bool = False, workers: int = 1) -> str:
    """Run everything; return the markdown report as a string.

    One section per :data:`EXPERIMENTS` entry, then the verification
    engines. ``quick=True`` passes each table's ``quick`` arguments (used
    by the tests); the default renders every experiment exactly as its
    ``benchmarks/results/`` file. ``workers`` shards the verification-engine
    campaigns (exploration and fuzzing) across a fork pool; verdicts are
    worker-count independent.
    """
    out = io.StringIO()
    out.write("# Reproduction report — Revisiting Lower Bounds for Two-Step Consensus\n\n")
    out.write(
        "Generated by `python -m repro report`; every number below is "
        "computed fresh from the implementation.\n\n"
    )
    for entry in EXPERIMENTS.values():
        computed = entry.compute(quick)
        _section(out, entry.tables[0].title, entry.render(computed), entry.judge(computed))

    summary = verification_engine_summary(quick=quick, workers=workers)
    exploration = summary["explore"]
    fuzz = summary["fuzz"]
    engine_lines = [
        f"explorer: {exploration.metrics.describe()}"
        if exploration.metrics
        else "explorer: (no metrics)",
        f"  exhaustive={exploration.exhaustive} safe={exploration.safe} "
        f"states={exploration.states_visited}",
        f"fuzzer:   {fuzz.metrics.describe()}" if fuzz.metrics else "fuzzer: (no metrics)",
        f"  violations={len(fuzz.violating_seeds)}",
    ]
    _section(
        out,
        "Verification engine (E2 instrumentation)",
        "\n".join(engine_lines) + "\n\n" + render_records(summary["fuzz_rows"]),
        "exploration exhaustive and safe; fuzzing finds nothing at the bound"
        if exploration.safe and exploration.exhaustive and not fuzz.found_violation
        else MISMATCH,
    )
    return out.getvalue()
