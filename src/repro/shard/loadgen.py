"""Sharded load generation: routers instead of single-cluster clients.

Same report shape as :func:`repro.net.loadgen.run_loadgen` — the
:class:`~repro.net.loadgen.LoadReport` and its ``--record`` artifact are
shared — but each worker drives a :class:`~repro.shard.ShardRouter`, so
commands spread over groups by key placement, redirects are followed
transparently (and counted), and the record carries the sharded
provenance fields: the placement-map epoch the run finished on and the
per-group completed-command split.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.stats import summarize
from ..core.errors import ConfigurationError
from ..net.client import ClientError, PipelineError
from ..net.codec import MessageCodec
from ..net.loadgen import LoadReport
from ..net.node import Address
from ..net.stats import scrape_sharded_cluster
from ..smr.client import put_get_workload
from ..verify.metrics import MetricsRecorder
from .catalog import CATALOG_GROUP, fetch_placement
from .placement import PlacementMap
from .router import ShardRouter


async def run_sharded_loadgen(
    groups: Mapping[int, Sequence[Address]],
    clients: int = 4,
    count: int = 100,
    keys: Optional[Sequence[str]] = None,
    key_space: int = 32,
    put_fraction: float = 0.7,
    seed: int = 0,
    timeout: float = 5.0,
    max_attempts: int = 8,
    codec: Optional[MessageCodec] = None,
    client_id_prefix: str = "slg",
    pipeline: int = 16,
    key_skew: Optional[float] = None,
    placement: Optional[PlacementMap] = None,
    collect_stats: bool = False,
) -> LoadReport:
    """Drive *count* commands across a sharded deployment.

    The boot map comes from the catalog group unless *placement* is
    given; each of *clients* workers gets its own router (own per-group
    connections), and the workload's keys default to ``key-0 ..
    key-<key_space-1>`` so they hash across every group's ranges.
    ``key_skew`` applies Zipf(s) popularity to the key pool.
    """
    if clients < 1:
        raise ConfigurationError(f"need at least one client, got {clients}")
    if pipeline < 1:
        raise ConfigurationError(f"pipeline depth must be >= 1, got {pipeline}")
    shared_codec = codec if codec is not None else MessageCodec()
    if placement is None:
        placement = await fetch_placement(
            groups[CATALOG_GROUP], codec=shared_codec,
            client_id=f"{client_id_prefix}-catalog", timeout=timeout,
        )
        if placement is None:
            raise ClientError("catalog group has no placement map published")
    if keys is None:
        keys = [f"key-{index}" for index in range(key_space)]
    ops = put_get_workload(
        count,
        keys=keys,
        proxies=[0],  # proxy assignment is the router's job here
        put_fraction=put_fraction,
        seed=seed,
        key_skew=key_skew,
    )
    shares = [list(ops[index::clients]) for index in range(clients)]
    recorder = MetricsRecorder("loadgen")
    completions: List[Tuple[str, Any, float, float, bool]] = []
    errors: List[str] = []
    routers: List[ShardRouter] = []

    def record(reply: Any, elapsed: float) -> None:
        recorder.units += 1
        completions.append(
            (
                reply.command_id,
                reply.result,
                reply.commit_seconds,
                elapsed,
                reply.duplicate,
            )
        )

    async def worker(index: int, share: List[Any]) -> None:
        router = ShardRouter(
            dict(groups),
            placement,
            codec=shared_codec,
            client_id=f"{client_id_prefix}-{index}",
            timeout=timeout,
            max_attempts=max_attempts,
        )
        routers.append(router)
        try:
            await router.run_pipelined(
                [op.command for op in share],
                window=pipeline,
                on_reply=record,
            )
        except PipelineError as exc:
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
    if collect_stats:
        cluster_stats = await scrape_sharded_cluster(
            groups, codec=shared_codec, timeout=timeout
        )
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
        placement_epoch=max(
            (router.placement.epoch for router in routers),
            default=placement.epoch,
        ),
        group_commands=group_commands,
        redirects=sum(router.redirect_count for router in routers),
    )


__all__ = ["run_sharded_loadgen"]
