"""Shard perf smoke: throughput must scale with group count.

The sharding tentpole's CI gates. Every group of a
:class:`~repro.shard.ShardedCluster` runs in its own host process, and
the load generator (one :class:`~repro.shard.ShardRouter` per worker)
runs in the test's process. Two floors:

* **capacity mode** — each group of a 4-group deployment is driven *in
  isolation* through the full sharded routing path, and the aggregate
  is the sum: what G independent leader pipelines provide whatever the
  core count. ``aggregate 4-group capacity ≥ 2.5 × single-group``.
* **concurrent load** — two groups driven *together* through one
  router must beat one group driven alone:
  ``2-group throughput ≥ 1.2 × single-group``. Groups that shared one
  event loop (or one core) land near 1× and fail it; it needs two
  cores, so it is skipped on one.

A sharding layer that accidentally serializes groups (e.g. routing every
key through one group, or a router that locks across groups) lands near
1× and fails clearly. ``benchmarks/e2e``'s ``kv_sharded`` workload
measures the concurrent figure at benchmark scale.
"""

import asyncio
import os
import time

import pytest

from repro.omega import static_omega_factory
from repro.protocols.twostep import TwoStepConfig
from repro.net.cluster import LocalCluster
from repro.net.loadgen import run_loadgen
from repro.shard import PlacementMap, ShardedCluster, ShardRouter
from repro.smr.kvstore import KVCommand
from repro.smr.log import smr_factory

HARD_TIMEOUT = 240.0
SLOTS = 64
COMMANDS = 600
KEY_SPACE = 64
SCALING_FLOOR = 2.5
CONCURRENT_FLOOR = 1.2
CONCURRENT_COMMANDS = 8000
CHUNKS = 6


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


async def _concurrent_scaling():
    # One group alone is the one-group deployment: its nodes and the
    # router on this event loop. The sharded deployment starts first, so
    # its hosts fork before any socket of the single group exists.
    async with ShardedCluster(2, 3, _factory(), slots=SLOTS) as sharded:
        async with LocalCluster(3, _factory(), serve_clients=True) as single:
            routers = {
                "alone": ShardRouter(
                    single.addresses_by_group,
                    PlacementMap.initial(1, SLOTS),
                    codec=single.codec,
                ),
                "together": ShardRouter(
                    sharded.addresses_by_group, sharded.placement, codec=sharded.codec
                ),
            }
            rates = {name: [] for name in routers}
            try:
                # Alternate the two, one warm-up chunk each, and keep each
                # one's best of five: a slow minute of a shared machine
                # then lands on both sides or on neither.
                for chunk in range(CHUNKS):
                    for name, router in routers.items():
                        commands = [
                            KVCommand(
                                "put", f"key-{i % KEY_SPACE}", i,
                                command_id=f"{name}-{chunk}-{i}",
                            )
                            for i in range(CONCURRENT_COMMANDS)
                        ]
                        started = time.perf_counter()
                        replies = await router.run_pipelined(commands, window=128)
                        rates[name].append(
                            len(commands) / (time.perf_counter() - started)
                        )
                        assert len(replies) == len(commands)
            finally:
                for router in routers.values():
                    await router.close()
    alone, together = (max(rates[name][1:]) for name in ("alone", "together"))
    scaling = together / alone
    assert scaling >= CONCURRENT_FLOOR, (
        f"two groups under one router ran {together:,.0f}/s, only "
        f"{scaling:.2f}x one group alone at {alone:,.0f}/s "
        f"(floor {CONCURRENT_FLOOR}x); per chunk: {rates}"
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="two groups need two cores to run at once"
)
def test_two_groups_under_concurrent_load_beat_one_group():
    asyncio.run(asyncio.wait_for(_concurrent_scaling(), HARD_TIMEOUT))
