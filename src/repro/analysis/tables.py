"""Plain-text table rendering for the experiment harness.

Benchmarks print tables in the shape the paper's narrative implies (the
brief announcement has no numbered tables, so these are the canonical
renderings recorded in EXPERIMENTS.md). Pure string formatting — no
dependencies, stable output for diffing across runs.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence


def _format_cell(value: Any, float_digits: int = 1) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{float_digits}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
    float_digits: int = 1,
) -> str:
    """Render an aligned plain-text table."""
    text_rows = [
        [_format_cell(cell, float_digits) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    parts: List[str] = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    parts.append(line(list(headers)))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(row) for row in text_rows)
    return "\n".join(parts)


def render_records(
    records: Sequence[Mapping[str, Any]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    float_digits: int = 1,
) -> str:
    """Render a list of dicts as a table (columns from the first record)."""
    if not records:
        return f"{title}\n(empty)" if title else "(empty)"
    keys = list(columns) if columns is not None else list(records[0].keys())
    rows = [[record.get(key) for key in keys] for record in records]
    return render_table(keys, rows, title=title, float_digits=float_digits)
