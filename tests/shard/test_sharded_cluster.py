"""Live sharded cluster smoke: boot, spread, exactly-once, observability.

A 2-group × 3-replica :class:`~repro.shard.ShardedCluster` (six real
asyncio-TCP nodes in one loop) under the sharded load generator. The
obligations: commands land in the group their key hashes to and nowhere
else (exactly-once across the deployment), every intra-group invariant
the single-cluster suite checks still holds per group, and the sharded
scrape renders per-group rows (``g<group>:n<pid>``) without pid
collisions — including telling a whole-group outage apart from a
single-node one.
"""

import asyncio

from repro.net.stats import describe_cluster_stats, scrape_sharded_cluster
from repro.omega import static_omega_factory
from repro.protocols.twostep import TwoStepConfig
from repro.shard import ShardedCluster, run_sharded_loadgen
from repro.smr import check_logs_consistent
from repro.smr.log import smr_factory

HARD_TIMEOUT = 120.0
GROUPS, REPLICAS = 2, 3
SLOTS = 16
COUNT = 80


def _factory(delta: float = 0.05):
    return smr_factory(
        1,
        1,
        delta=delta,
        omega_factory=static_omega_factory(0),
        consensus_config=TwoStepConfig(f=1, e=1, delta=delta, is_object=True),
        batch_size=16,
        window=4,
    )


async def _boot_spread_and_scrape():
    async with ShardedCluster(
        GROUPS, REPLICAS, _factory(), slots=SLOTS
    ) as cluster:
        report = await run_sharded_loadgen(
            cluster.addresses_by_group,
            clients=2,
            count=COUNT,
            key_space=24,
            pipeline=8,
            codec=cluster.codec,
            collect_stats=True,
        )
        assert report.failed == 0, report.errors
        assert report.completed == COUNT

        # Sharded provenance fields ride the standard --record payload.
        record = report.to_record()
        assert record["placement_epoch"] == 0
        assert record["redirects"] == 0  # no rebalance ran
        per_group = record["group_commands"]
        assert sum(per_group.values()) == COUNT
        assert all(count > 0 for count in per_group.values()), (
            f"load never spread: {per_group}"
        )

        # Exactly-once, deployment-wide: each command id appears in
        # exactly one group's applied log, and in the group its key owns.
        await cluster.wait_groups_converged(
            timeout=30.0,
            expected_commands={
                int(group): count for group, count in per_group.items()
            },
        )
        logs = cluster.group_logs()
        all_ids = [cid for log in logs.values() for cid in log]
        assert len(all_ids) == len(set(all_ids)), "a command applied in two groups"
        assert sorted(all_ids) == sorted(report.results)

        # Per-group invariants are the single-cluster ones, unchanged.
        for group in range(GROUPS):
            assert check_logs_consistent(cluster.survivor_replicas(group)) == []

        # The sharded scrape collected during the run: per-group rows,
        # group-tagged, with per-group fast-path ratios for Theorems 5/6.
        view = report.cluster_stats
        assert set(view["nodes"]) == {
            f"g{g}:n{p}" for g in range(GROUPS) for p in range(REPLICAS)
        }
        assert set(view["per_group_fast_path_ratio"]) == {0, 1}
        assert view["unreachable"] == []
        assert view["unreachable_groups"] == []
        rendered = describe_cluster_stats(view)
        assert "per-group fast-path" in rendered


def test_sharded_cluster_spreads_and_applies_exactly_once():
    asyncio.run(asyncio.wait_for(_boot_spread_and_scrape(), HARD_TIMEOUT))


async def _zipf_skew_still_exact():
    """A skewed workload changes the traffic split, not the safety story."""
    async with ShardedCluster(
        GROUPS, REPLICAS, _factory(), slots=SLOTS
    ) as cluster:
        report = await run_sharded_loadgen(
            cluster.addresses_by_group,
            clients=2,
            count=60,
            key_space=24,
            pipeline=8,
            key_skew=1.2,
            codec=cluster.codec,
        )
        assert report.failed == 0, report.errors
        await cluster.wait_groups_converged(timeout=30.0)
        logs = cluster.group_logs()
        all_ids = [cid for log in logs.values() for cid in log]
        assert len(all_ids) == len(set(all_ids))
        assert sorted(all_ids) == sorted(report.results)


def test_zipf_skewed_load_stays_exactly_once():
    asyncio.run(asyncio.wait_for(_zipf_skew_still_exact(), HARD_TIMEOUT))


async def _outage_views():
    async with ShardedCluster(
        GROUPS, REPLICAS, _factory(), slots=SLOTS
    ) as cluster:
        groups = cluster.addresses_by_group

        # One node down: its tagged row is unreachable, no group flagged.
        await cluster.crash(1, 2)
        view = await scrape_sharded_cluster(groups, codec=cluster.codec)
        assert view["unreachable"] == ["g1:n2"]
        assert view["unreachable_groups"] == []
        assert view["nodes"]["g1:n2"] is None
        assert view["nodes"]["g1:n0"] is not None

        # The whole group down is a different condition and says so.
        await cluster.crash(1, 0)
        await cluster.crash(1, 1)
        view = await scrape_sharded_cluster(groups, codec=cluster.codec)
        assert view["unreachable_groups"] == [1]
        assert sorted(view["unreachable"]) == ["g1:n0", "g1:n1", "g1:n2"]
        rendered = describe_cluster_stats(view)
        assert "UNREACHABLE GROUPS" in rendered
        # Group 0 still scrapes: a dead group must not poison the merge.
        assert view["nodes"]["g0:n0"] is not None


def test_group_outage_distinct_from_node_outage():
    asyncio.run(asyncio.wait_for(_outage_views(), HARD_TIMEOUT))
