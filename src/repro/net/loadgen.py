"""The load generator: one or G groups, closed loop or pipelined.

``run_loadgen`` takes a group map; a single cluster is ``{0: addresses}``.
Each worker drives its own :class:`~repro.shard.ShardRouter`, which
routes every command to the group owning its key, follows ``WrongShard``
redirects and counts completions per group. The workload comes from the
seeded generator the simulator uses, :func:`repro.smr.client.put_get_workload`,
so a single-group live run and an E10 simulation of the same
``(count, keys, seed)`` execute the identical command sequence against
the identical proxy assignment, and their latency tables compare directly.

``pipeline == 1`` is the closed loop: submit, wait for the reply, submit
the next, each to the op's designated proxy. ``pipeline > 1`` is the
open loop that saturates a batching cluster: each worker keeps that many
commands outstanding per group, pinned to ``pin_proxy`` (default 0, the
static Ω leader). One proxy keeps consensus slots uncontended: under the
object variant's red conjunct, saturated *distinct* proxies racing the
same slot refuse each other's values and stall on the 2Δ ballot timer;
``pin_proxy=None`` spreads workers round-robin to measure that regime.

Reports reuse the :mod:`repro.verify.metrics` layer (``kind="loadgen"``,
one unit = one completed command) for throughput, and
:func:`repro.analysis.stats.summarize` for p50/p95/p99 commit latency.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.stats import Summary, summarize
from ..core.errors import ConfigurationError
from ..obs import critical_paths, merge_span_events, stage_breakdown
from ..smr.client import ClientOp, put_get_workload
from ..verify.metrics import MetricsRecorder, VerificationMetrics
from .client import ClientError, PipelineError
from .codec import MessageCodec
from .transport import Address
from .stats import scrape_cluster

if TYPE_CHECKING:
    from ..shard.placement import PlacementMap


@dataclass
class LoadReport:
    """What one load-generation run produced.

    ``commit_latency`` is the proxy-observed commit latency carried in
    each reply (the paper's client-latency quantity, real seconds);
    ``client_latency`` is the client-observed wall latency including the
    network hop and any retries.
    """

    commands: int
    completed: int
    failed: int
    duplicates: int
    wall_seconds: float
    metrics: VerificationMetrics
    commit_latency: Optional[Summary]
    client_latency: Optional[Summary]
    results: Dict[str, Any] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    pipeline: int = 1
    cluster_stats: Optional[Dict[str, Any]] = None
    trace_paths: Optional[List[Dict[str, Any]]] = None
    trace_breakdown: Optional[Dict[str, Any]] = None
    # Routing provenance, summed over the workers' routers: the map epoch
    # the run finished on, completed commands per group, and how many
    # WrongShard redirects the routers followed along the way.
    placement_epoch: int = 0
    group_commands: Dict[int, int] = field(default_factory=dict)
    redirects: int = 0

    @property
    def throughput(self) -> float:
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def describe(self) -> str:
        parts = [
            f"{self.completed}/{self.commands} commands in "
            f"{self.wall_seconds:.3f}s ({self.throughput:,.0f}/s)"
        ]
        if self.commit_latency is not None:
            s = self.commit_latency
            parts.append(
                f"commit p50={s.p50 * 1000:.1f}ms p95={s.p95 * 1000:.1f}ms "
                f"p99={s.p99 * 1000:.1f}ms"
            )
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.duplicates:
            parts.append(f"{self.duplicates} duplicate completions")
        return "; ".join(parts)

    def to_record(self) -> Dict[str, Any]:
        """Flat, JSON-safe row for tables and ``--json`` output."""
        record: Dict[str, Any] = {
            "commands": self.commands,
            "completed": self.completed,
            "failed": self.failed,
            "duplicates": self.duplicates,
            "pipeline": self.pipeline,
            "wall_seconds": round(self.wall_seconds, 4),
            "throughput_per_sec": round(self.throughput, 1),
        }
        for label, summary in (
            ("commit", self.commit_latency),
            ("client", self.client_latency),
        ):
            if summary is not None:
                record[f"{label}_p50_ms"] = round(summary.p50 * 1000, 2)
                record[f"{label}_p95_ms"] = round(summary.p95 * 1000, 2)
                record[f"{label}_p99_ms"] = round(summary.p99 * 1000, 2)
                record[f"{label}_mean_ms"] = round(summary.mean * 1000, 2)
        # Failures are part of the result, not an aside: the first few
        # error strings ride along so a --record artifact of a degraded
        # run explains itself.
        record["errors_sample"] = list(self.errors[:5])
        record["placement_epoch"] = self.placement_epoch
        record["group_commands"] = {
            str(group): count for group, count in sorted(self.group_commands.items())
        }
        record["redirects"] = self.redirects
        if self.cluster_stats is not None:
            counters = self.cluster_stats["merged"]["counters"]
            record["fast_path_ratio"] = self.cluster_stats["fast_path_ratio"]
            record["decisions_fast"] = counters.get("consensus.decisions_fast", 0)
            record["decisions_slow"] = counters.get("consensus.decisions_slow", 0)
            record["decisions_learned"] = counters.get(
                "consensus.decisions_learned", 0
            )
            record["gap_repair_noops"] = counters.get("smr.gap_repair_noops", 0)
            record["per_group_fast_path_ratio"] = {
                str(group): ratio
                for group, ratio in sorted(
                    self.cluster_stats["per_group_fast_path_ratio"].items()
                )
            }
            record["cluster_stats"] = self.cluster_stats
        if self.trace_paths is not None:
            record["traced_commands"] = len(self.trace_paths)
            record["trace_breakdown"] = self.trace_breakdown
        return record


async def run_loadgen(
    groups: Mapping[int, Sequence[Address]],
    clients: int = 4,
    count: int = 100,
    keys: Sequence[str] = ("alpha", "beta", "gamma"),
    put_fraction: float = 0.7,
    seed: int = 0,
    timeout: float = 5.0,
    max_attempts: int = 8,
    codec: Optional[MessageCodec] = None,
    client_id_prefix: str = "lg",
    ops: Optional[Sequence[ClientOp]] = None,
    pipeline: int = 1,
    pin_proxy: Optional[int] = 0,
    collect_stats: bool = False,
    trace_sample: int = 0,
    key_skew: Optional[float] = None,
    placement: Optional[PlacementMap] = None,
) -> LoadReport:
    """Drive *count* commands through the deployment at *groups*.

    The key placement is *placement* when given; otherwise one group owns
    every key, and G > 1 groups read the map from the catalog group. The
    commands and proxy assignment come from :func:`put_get_workload` with
    the given seed (or pass explicit *ops*), dealt round-robin to
    *clients* concurrent workers.

    ``collect_stats`` scrapes every node's observability snapshot after
    the run and merges it into the report (``cluster_stats``), putting
    the fast-path ratio and per-message-type counters next to the
    latency table in ``--record`` artifacts.

    ``trace_sample=N`` stamps every Nth command with a client-minted
    trace id (``c.<prefix>.<i>``). On nodes that record spans the
    stamped commands come back as merged per-command critical paths
    (``trace_paths``) and a per-stage latency breakdown split by
    decision path (``trace_breakdown``); span-less nodes ignore the
    ids and the knob is a no-op.
    """
    # Deferred: repro.shard is built on repro.net, so importing it at
    # module level would be circular.
    from ..shard.catalog import CATALOG_GROUP, fetch_placement
    from ..shard.placement import PlacementMap
    from ..shard.router import ShardRouter

    if clients < 1:
        raise ConfigurationError(f"need at least one client, got {clients}")
    if pipeline < 1:
        raise ConfigurationError(f"pipeline depth must be >= 1, got {pipeline}")
    if trace_sample < 0:
        raise ConfigurationError(f"trace_sample must be >= 0, got {trace_sample}")
    shared_codec = codec if codec is not None else MessageCodec()
    if placement is None:
        if len(groups) == 1:
            # Not fetched: a catalog read would append a command to the
            # log of a plain (unsharded) KV service.
            placement = PlacementMap.initial(1)
        else:
            placement = await fetch_placement(
                groups[CATALOG_GROUP], codec=shared_codec,
                client_id=f"{client_id_prefix}-catalog", timeout=timeout,
            )
            if placement is None:
                raise ClientError("catalog group has no placement map published")
    if ops is None:
        ops = put_get_workload(
            count,
            keys=keys,
            proxies=list(range(max(len(nodes) for nodes in groups.values()))),
            put_fraction=put_fraction,
            seed=seed,
            key_skew=key_skew,
        )
    shares: List[List[ClientOp]] = [list(ops[i::clients]) for i in range(clients)]
    trace_ids: Dict[str, str] = {}
    if trace_sample:
        trace_ids = {
            op.command.command_id: f"c.{client_id_prefix}.{index}"
            for index, op in enumerate(ops)
            if index % trace_sample == 0
        }
    recorder = MetricsRecorder("loadgen")
    completions: List[Tuple[str, Any, float, float, bool]] = []
    errors: List[str] = []
    routers: List[ShardRouter] = []

    def record(reply: Any, elapsed: float) -> None:
        recorder.units += 1
        completions.append(
            (reply.command_id, reply.result, reply.commit_seconds, elapsed, reply.duplicate)
        )

    async def worker(index: int, share: List[ClientOp]) -> None:
        router = ShardRouter(
            groups,
            placement,
            codec=shared_codec,
            client_id=f"{client_id_prefix}-{index}",
            timeout=timeout,
            max_attempts=max_attempts,
        )
        routers.append(router)
        try:
            if pipeline == 1:
                for op in share:
                    begin = time.perf_counter()
                    try:
                        reply = await router.submit(
                            op.command,
                            proxy=op.proxy,
                            trace_id=trace_ids.get(op.command.command_id),
                        )
                    except ClientError as exc:
                        errors.append(str(exc))
                        continue
                    record(reply, time.perf_counter() - begin)
            else:
                await router.run_pipelined(
                    [op.command for op in share],
                    window=pipeline,
                    proxy=pin_proxy if pin_proxy is not None else index,
                    on_reply=record,
                    traces=trace_ids if trace_ids else None,
                )
        except PipelineError as exc:
            # One error entry per unfinished command, as the closed loop
            # keeps; completed work is already recorded via on_reply.
            for command_id in exc.pending:
                errors.append(f"command {command_id!r} incomplete: {exc}")
        except ClientError as exc:
            errors.append(str(exc))
        finally:
            await router.close()

    started = time.perf_counter()
    await asyncio.gather(
        *(worker(index, share) for index, share in enumerate(shares))
    )
    wall = time.perf_counter() - started

    cluster_stats: Optional[Dict[str, Any]] = None
    trace_paths: Optional[List[Dict[str, Any]]] = None
    trace_stage_breakdown: Optional[Dict[str, Any]] = None
    if collect_stats or trace_sample:
        cluster_stats = await scrape_cluster(
            groups, codec=shared_codec,
            include_spans=bool(trace_sample), timeout=timeout,
        )
        cluster_spans = cluster_stats.pop("spans", None)
        if cluster_spans:
            trace_paths = critical_paths(merge_span_events(cluster_spans))
            trace_stage_breakdown = stage_breakdown(trace_paths)
        elif trace_sample:
            trace_paths = []
            trace_stage_breakdown = stage_breakdown([])
        if not collect_stats:
            # Spans were the only reason we scraped; don't surprise the
            # caller with a full cluster snapshot they didn't ask for.
            cluster_stats = None

    group_commands: Dict[int, int] = {}
    for router in routers:
        for group, completed in router.group_commands.items():
            group_commands[group] = group_commands.get(group, 0) + completed
    commit_samples = [c[2] for c in completions if not c[4]]
    client_samples = [c[3] for c in completions]
    return LoadReport(
        commands=len(ops),
        completed=len(completions),
        failed=len(ops) - len(completions),
        duplicates=sum(1 for c in completions if c[4]),
        wall_seconds=wall,
        metrics=recorder.finish(workers=clients, wall_seconds=wall),
        commit_latency=summarize(commit_samples),
        client_latency=summarize(client_samples),
        results={c[0]: c[1] for c in completions if not c[4]},
        errors=errors,
        pipeline=pipeline,
        cluster_stats=cluster_stats,
        trace_paths=trace_paths,
        trace_breakdown=trace_stage_breakdown,
        placement_epoch=max(
            (router.placement.epoch for router in routers),
            default=placement.epoch,
        ),
        group_commands=group_commands,
        redirects=sum(router.redirect_count for router in routers),
    )
