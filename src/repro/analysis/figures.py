"""Plain-text figure rendering: line charts and bar charts in ASCII.

The experiment harness produces *series* as well as tables (latency vs
conflict rate, latency vs system size, fast fraction vs conflict). These
helpers render them as terminal-friendly charts so `benchmarks/results/`
contains the figures of EXPERIMENTS.md without any plotting dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple


@dataclass(frozen=True)
class Series:
    """One named line in a chart: parallel x/y sequences."""

    name: str
    xs: Tuple[float, ...]
    ys: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise ValueError(
                f"series {self.name!r}: {len(self.xs)} xs vs {len(self.ys)} ys"
            )


def series(name: str, points: Sequence[Tuple[float, float]]) -> Series:
    """Build a :class:`Series` from ``(x, y)`` pairs."""
    xs = tuple(float(x) for x, _ in points)
    ys = tuple(float(y) for _, y in points)
    return Series(name=name, xs=xs, ys=ys)


#: Plot glyphs assigned to series in order.
_MARKS = "ox+*#@%&"


def line_chart(
    all_series: Sequence[Series],
    title: str = "",
    width: int = 60,
    height: int = 16,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render series as a scatter/line chart on a character grid.

    Points are plotted on a ``width`` x ``height`` grid scaled to the
    joint data range; consecutive points of a series are connected with
    linear interpolation so trends read as lines.
    """
    points = [(x, y) for s in all_series for x, y in zip(s.xs, s.ys)]
    if not points:
        return f"{title}\n(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def col(x: float) -> int:
        return round((x - x_lo) / (x_hi - x_lo) * (width - 1))

    def row(y: float) -> int:
        return (height - 1) - round((y - y_lo) / (y_hi - y_lo) * (height - 1))

    grid = [[" "] * width for _ in range(height)]
    for index, one in enumerate(all_series):
        mark = _MARKS[index % len(_MARKS)]
        # interpolated segments first, so endpoint markers win overlaps
        for (x0, y0), (x1, y1) in zip(
            zip(one.xs, one.ys), list(zip(one.xs, one.ys))[1:]
        ):
            steps = max(abs(col(x1) - col(x0)), abs(row(y1) - row(y0)), 1)
            for step in range(steps + 1):
                t = step / steps
                grid[row(y0 + (y1 - y0) * t)][col(x0 + (x1 - x0) * t)] = (
                    "." if 0 < step < steps else mark
                )
        for x, y in zip(one.xs, one.ys):
            grid[row(y)][col(x)] = mark

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    top_label = f"{y_hi:g}"
    bottom_label = f"{y_lo:g}"
    margin = max(len(top_label), len(bottom_label), len(y_label)) + 1
    for r, grid_row in enumerate(grid):
        if r == 0:
            prefix = top_label.rjust(margin)
        elif r == height - 1:
            prefix = bottom_label.rjust(margin)
        elif r == height // 2 and y_label:
            prefix = y_label.rjust(margin)
        else:
            prefix = " " * margin
        lines.append(f"{prefix} |{''.join(grid_row)}")
    lines.append(" " * margin + " +" + "-" * width)
    x_axis = f"{x_lo:g}".ljust(width - len(f"{x_hi:g}")) + f"{x_hi:g}"
    lines.append(" " * margin + "  " + x_axis)
    if x_label:
        lines.append(" " * margin + "  " + x_label.center(width))
    legend = "   ".join(
        f"{_MARKS[i % len(_MARKS)]} {s.name}" for i, s in enumerate(all_series)
    )
    lines.append(f"legend: {legend}")
    return "\n".join(lines)


def bar_chart(
    values: Mapping[str, float],
    title: str = "",
    width: int = 50,
    unit: str = "",
) -> str:
    """Render a horizontal bar chart of labelled values."""
    if not values:
        return f"{title}\n(no data)"
    peak = max(values.values())
    scale = (width / peak) if peak > 0 else 0.0
    label_width = max(len(label) for label in values)
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    for label, value in values.items():
        bar = "#" * max(1 if value > 0 else 0, round(value * scale))
        lines.append(f"{label.rjust(label_width)} | {bar} {value:g}{unit}")
    return "\n".join(lines)
