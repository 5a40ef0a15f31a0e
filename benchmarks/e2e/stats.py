"""Order statistics, histogram deltas, and the regression rule.

The quartile spread is computed exactly as the driver does it:
``statistics.quantiles(values, n=4)``, distance between the first and
third quartile as a share of the median.
"""

from __future__ import annotations

import math
import statistics
from statistics import median  # noqa: F401  (re-exported: the one median in use)
from typing import Any, Dict, List, Mapping, Optional, Sequence


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, q2, q3]; a single value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """(q3 - q1) / median — the run-to-run spread the bounds are held to."""
    q1, _q2, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``0 < q <= 1``) of unsorted *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    q1, q2, q3 = quartiles(values)
    return {
        "values": list(values),
        "median": median(values),
        "q1": q1,
        "q3": q3,
        "spread": spread(values),
    }


# ----------------------------------------------------------------------
# Registry snapshots: cumulative since node boot, so the timed window is
# the difference of two.
# ----------------------------------------------------------------------


def counter_delta(before: Mapping[str, Any], after: Mapping[str, Any], prefix: str) -> int:
    """Summed growth of every counter named *prefix* or ``prefix.*``."""
    old, new = before.get("counters", {}), after.get("counters", {})
    return sum(
        value - old.get(name, 0)
        for name, value in new.items()
        if name == prefix or name.startswith(prefix + ".")
    )


def histogram_delta_quantile(
    before: Mapping[str, Any], after: Mapping[str, Any], name: str, q: float
) -> Optional[float]:
    """*q*-quantile of the samples a histogram gained between snapshots.

    Linear interpolation inside the bucket holding the rank; the
    overflow bucket reports the observed maximum. ``None`` when the
    histogram is absent or gained nothing.
    """
    new = after.get("histograms", {}).get(name)
    if new is None:
        return None
    old = before.get("histograms", {}).get(name)
    counts = list(new["counts"])
    if old is not None:
        counts = [c - o for c, o in zip(counts, old["counts"])]
    total = sum(counts)
    if total <= 0:
        return None
    bounds = new["bounds"]
    rank = q * total
    seen = 0
    for index, count in enumerate(counts):
        if count and seen + count >= rank:
            if index >= len(bounds):
                return new["max"]
            low = bounds[index - 1] if index else 0.0
            return low + (bounds[index] - low) * (rank - seen) / count
        seen += count
    return new["max"]


# ----------------------------------------------------------------------
# The regression rule shared by --compare and the acceptance check.
# ----------------------------------------------------------------------


def verdict(
    base: Mapping[str, float],
    change: Mapping[str, float],
    better: str,
    bound: float,
) -> Dict[str, Any]:
    """Judge one workload x metric pair of two summaries.

    ``unresolved`` when either side's own quartile spread is wider than
    the bound (the runs cannot tell a regression of that size from
    noise); else ``regressed`` when the change's median is worse than
    the base's by more than the bound; else ``ok``.
    """
    base_mid, change_mid = base["median"], change["median"]
    relative = (change_mid - base_mid) / abs(base_mid) if base_mid else 0.0
    worse = relative if better == "lower" else -relative
    if max(base["spread"], change["spread"]) > bound:
        status = "unresolved"
    elif worse > bound:
        status = "regressed"
    else:
        status = "ok"
    return {
        "base": base_mid,
        "change": change_mid,
        "relative": relative,
        "bound": bound,
        "status": status,
    }
