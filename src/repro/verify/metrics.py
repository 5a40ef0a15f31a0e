"""Lightweight metrics for verification campaigns.

Both verification engines attach a :class:`VerificationMetrics` to their
result objects (``ExplorationReport.metrics``, ``FuzzResult.metrics``).
The cost of collecting them is a handful of counters and two clock reads
per campaign — never per state — so metrics stay on by default.

Terminology: a *unit* is the engine's natural quantum of work — a visited
state for the explorer, a completed schedule for the fuzzer. Throughput is
always units per wall-clock second of the whole campaign (including any
multiprocessing overhead), which is the number the benchmarks track.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

try:  # POSIX only; absent on some platforms (e.g. Windows)
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    _resource = None


def peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB (0 if unavailable).

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalize to KiB.
    """
    if _resource is None:  # pragma: no cover - non-POSIX fallback
        return 0
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


#: Display name of one unit of work, per campaign kind. The live load
#: generator (:mod:`repro.net.loadgen`) reuses this layer with
#: ``kind="loadgen"``, where a unit is one completed client command.
UNIT_NAMES = {"explore": "states", "fuzz": "schedules", "loadgen": "commands"}


@dataclass(frozen=True)
class WorkerMetrics:
    """Per-worker share of a sharded campaign."""

    worker: int
    units: int
    seconds: float

    @property
    def units_per_sec(self) -> float:
        return self.units / self.seconds if self.seconds > 0 else 0.0


@dataclass(frozen=True)
class VerificationMetrics:
    """Campaign-level instrumentation (see the module docstring).

    ``dedup_checks``/``dedup_hits`` only apply to the explorer (signature
    lookups against the visited set); for the fuzzer they stay 0. Frontier
    and depth describe the explorer's DFS stack; ``max_frontier`` is the
    high-water mark of unexpanded states, ``max_depth`` the longest
    action trail reached.
    """

    kind: str  # "explore" | "fuzz"
    units: int
    wall_seconds: float
    dedup_checks: int = 0
    dedup_hits: int = 0
    max_frontier: int = 0
    max_depth: int = 0
    workers: int = 1
    per_worker: List[WorkerMetrics] = field(default_factory=list)
    peak_rss_kb: int = 0

    @property
    def units_per_sec(self) -> float:
        return self.units / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def dedup_hit_rate(self) -> float:
        """Fraction of child signatures already in the visited set."""
        return self.dedup_hits / self.dedup_checks if self.dedup_checks else 0.0

    def describe(self) -> str:
        unit_name = UNIT_NAMES.get(self.kind, "units")
        parts = [
            f"{self.units} {unit_name} in {self.wall_seconds:.3f}s "
            f"({self.units_per_sec:,.0f}/s)"
        ]
        if self.dedup_checks:
            parts.append(f"dedup hit-rate {self.dedup_hit_rate:.1%}")
        if self.max_frontier:
            parts.append(f"frontier peak {self.max_frontier}")
        if self.max_depth:
            parts.append(f"depth {self.max_depth}")
        if self.workers > 1:
            shares = ", ".join(
                f"w{w.worker}: {w.units_per_sec:,.0f}/s" for w in self.per_worker
            )
            parts.append(f"{self.workers} workers [{shares}]")
        if self.peak_rss_kb:
            parts.append(f"peak rss {self.peak_rss_kb / 1024:.0f} MiB")
        return "; ".join(parts)


class MetricsRecorder:
    """Counter bundle the engines mutate in their hot loops.

    Attribute increments only — the dataclass above is built once at
    :meth:`finish`. Each shard of a campaign finishes its own recorder,
    and the campaign's recorder folds those with :meth:`merge`.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.units = 0
        self.dedup_checks = 0
        self.dedup_hits = 0
        self.max_frontier = 0
        self.max_depth = 0
        self._started = time.perf_counter()

    def note_frontier(self, size: int) -> None:
        if size > self.max_frontier:
            self.max_frontier = size

    def note_depth(self, depth: int) -> None:
        if depth > self.max_depth:
            self.max_depth = depth

    def elapsed(self) -> float:
        return time.perf_counter() - self._started

    def merge(self, shards: Sequence[VerificationMetrics]) -> VerificationMetrics:
        """Finish a sharded campaign from its shards' metrics (index order).

        ``units`` stays the caller's to set: shards may overlap (every
        explorer shard counts the root state).
        """
        for shard in shards:
            self.dedup_checks += shard.dedup_checks
            self.dedup_hits += shard.dedup_hits
            self.note_frontier(shard.max_frontier)
            self.note_depth(shard.max_depth)
        per_worker = [
            WorkerMetrics(worker=index, units=shard.units, seconds=shard.wall_seconds)
            for index, shard in enumerate(shards)
        ]
        return self.finish(workers=len(shards), per_worker=per_worker)

    def finish(
        self,
        workers: int = 1,
        per_worker: Optional[List[WorkerMetrics]] = None,
        wall_seconds: Optional[float] = None,
    ) -> VerificationMetrics:
        return VerificationMetrics(
            kind=self.kind,
            units=self.units,
            wall_seconds=self.elapsed() if wall_seconds is None else wall_seconds,
            dedup_checks=self.dedup_checks,
            dedup_hits=self.dedup_hits,
            max_frontier=self.max_frontier,
            max_depth=self.max_depth,
            workers=workers,
            per_worker=list(per_worker or []),
            peak_rss_kb=peak_rss_kb(),
        )
