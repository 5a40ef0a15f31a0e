"""Shard perf smoke: aggregate capacity must scale with group count.

The sharding tentpole's CI gate. This harness runs every node of every
group in ONE event loop on (typically) one CI core, so wall-clock
throughput under concurrent load measures scheduler interleaving, not
capacity. The honest in-process figure is **capacity mode**: each group
of a 4-group deployment is driven *in isolation* through the full
sharded routing path, and the aggregate is the sum — exactly what G
independent leader pipelines provide once deployed on separate hosts.
This smoke test gates the floor (``benchmarks/e2e``'s ``kv_sharded``
workload measures the concurrent-load figure):

    aggregate 4-group capacity ≥ 2.5 × single-group throughput

A sharding layer that accidentally serializes groups (e.g. routing every
key through one group, or a router that locks across groups) lands near
1× and fails clearly.
"""

import asyncio

from repro.omega import static_omega_factory
from repro.protocols.twostep import TwoStepConfig
from repro.net.loadgen import run_loadgen
from repro.shard import ShardedCluster
from repro.smr.log import smr_factory

HARD_TIMEOUT = 240.0
SLOTS = 64
COMMANDS = 600
KEY_SPACE = 64
SCALING_FLOOR = 2.5


def _factory():
    delta = 0.05
    return smr_factory(
        1,
        1,
        delta=delta,
        omega_factory=static_omega_factory(0),
        consensus_config=TwoStepConfig(f=1, e=1, delta=delta, is_object=True),
        batch_size=64,
        window=1,
    )


def _group_keys(placement, group):
    keys = [
        key
        for key in (f"key-{index}" for index in range(KEY_SPACE))
        if placement.group_for_key(key) == group
    ]
    assert keys, f"no keys hash to group {group}"
    return keys


async def _drive(cluster, keys, count=COMMANDS, seed=0):
    report = await run_loadgen(
        cluster.addresses_by_group,
        clients=2,
        count=count,
        keys=keys,
        pipeline=32,
        seed=seed,
        codec=cluster.codec,
        placement=cluster.placement,
    )
    assert report.failed == 0, report.errors
    assert report.completed == count
    return count / report.wall_seconds


async def _capacity_scaling():
    async with ShardedCluster(
        1, 3, _factory(), slots=SLOTS
    ) as single:
        single_throughput = await _drive(
            single, _group_keys(single.placement, 0)
        )

    async with ShardedCluster(
        4, 3, _factory(), slots=SLOTS
    ) as sharded:
        per_group = []
        for group in range(4):
            per_group.append(
                await _drive(
                    sharded,
                    _group_keys(sharded.placement, group),
                    seed=group,
                )
            )
    aggregate = sum(per_group)
    scaling = aggregate / single_throughput
    assert scaling >= SCALING_FLOOR, (
        f"4-group aggregate capacity {aggregate:,.0f}/s is only "
        f"{scaling:.2f}x the single-group {single_throughput:,.0f}/s "
        f"(floor {SCALING_FLOOR}x); per-group: "
        + ", ".join(f"{t:,.0f}/s" for t in per_group)
    )


def test_four_group_capacity_clears_the_scaling_floor():
    asyncio.run(asyncio.wait_for(_capacity_scaling(), HARD_TIMEOUT))
