"""Live stats endpoint: scrape, merge, and the sim/live decision match.

The acceptance check for the observability layer is at the bottom: the
same seeded workload, run once through the simulator and once through a
live :class:`LocalCluster`, must report the *same* per-slot decision
paths and the same fast-path ratio — both runtimes count decisions
through the one ``ctx.obs`` seam, so a divergence means one of them is
lying about which commits took the 2Δ path.
"""

import asyncio

from repro.net.cluster import LocalCluster
from repro.net.loadgen import run_loadgen
from repro.net.stats import describe_cluster_stats, fetch_node_stats, scrape_cluster
from repro.obs import merge_decision_records, slot_paths
from repro.omega import static_omega_factory
from repro.protocols.twostep import TwoStepConfig
from repro.smr.client import put_get_workload, run_kv_workload
from repro.smr.log import smr_factory

HARD_TIMEOUT = 60.0


def _run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, HARD_TIMEOUT))


def _factory(delta: float = 0.05, batch_size: int = 1, window: int = 1):
    return smr_factory(
        1,
        1,
        delta=delta,
        omega_factory=static_omega_factory(0),
        consensus_config=TwoStepConfig(f=1, e=1, delta=delta, is_object=True),
        batch_size=batch_size,
        window=window,
    )


class TestScrapeCluster:
    def test_scrape_reports_fast_path_and_wire_counters(self):
        ops = put_get_workload(12, keys=("k",), proxies=[0, 1, 2], seed=3)

        async def live():
            async with LocalCluster(3, _factory(), serve_clients=True) as cluster:
                report = await run_loadgen(
                    {0: cluster.addresses}, clients=2, ops=ops, codec=cluster.codec
                )
                assert report.failed == 0, report.errors
                await cluster.wait_logs_converged(
                    timeout=20.0, expected_commands=len(ops)
                )
                view = await scrape_cluster({0: cluster.addresses}, codec=cluster.codec)
                single = await fetch_node_stats(
                    cluster.addresses[0], codec=cluster.codec
                )
                decided = {
                    node.pid: set(node.process.decided) for node in cluster.nodes
                }
                return view, single, decided

        view, single, decided = _run(live())

        assert view["unreachable"] == []
        counters = view["merged"]["counters"]
        assert counters["consensus.decisions_fast"] > 0
        assert any(name.startswith("sent.") for name in counters)
        assert any(name.startswith("sent_bytes.") for name in counters)
        assert any(name.startswith("recv.") for name in counters)
        assert counters.get("timer.set", 0) > 0
        assert view["fast_path_ratio"] is not None
        assert view["decisions"]["conflicts"] == []
        assert view["decisions"]["slots"]
        assert view["merged"]["histograms"]["smr.commit_seconds"]["count"] > 0
        # Decision records are each node's one per-decision record: one
        # per decided slot, each with its path, ballot and decision time.
        for pid, snapshot in view["nodes"].items():
            assert snapshot is not None
            records = snapshot["decisions"]
            assert {record["slot"] for record in records} == decided[pid]
            for record in records:
                assert record["path"] in ("fast", "slow", "learned")
                assert (record["ballot"] is None) == (record["path"] == "learned")
                assert record["decided_at"] is not None
        # One group: bare pids, and decisions are exactly the one-group
        # merge of the nodes' records — no group tags anywhere.
        assert set(view["nodes"]) == {0, 1, 2}
        assert view["decisions"] == merge_decision_records(
            {pid: snapshot["decisions"] for pid, snapshot in view["nodes"].items()}
        )
        assert view["fast_path_ratio"] == view["decisions"]["fast_path_ratio"]
        assert view["per_group_fast_path_ratio"] == {0: view["fast_path_ratio"]}
        assert view["unreachable_groups"] == []
        text = describe_cluster_stats(view)
        assert "fast-path ratio" in text

        # Single-node fetch: the reply identifies itself and carries the
        # same snapshot shape.
        assert single.pid == 0
        assert "counters" in single.snapshot

    def test_loadgen_collects_stats_into_the_record(self):
        ops = put_get_workload(8, keys=("k",), proxies=[0, 1, 2], seed=5)

        async def live():
            async with LocalCluster(3, _factory(), serve_clients=True) as cluster:
                return await run_loadgen(
                    {0: cluster.addresses},
                    clients=2,
                    ops=ops,
                    codec=cluster.codec,
                    collect_stats=True,
                )

        report = _run(live())
        assert report.failed == 0, report.errors
        assert report.cluster_stats is not None
        record = report.to_record()
        assert record["errors_sample"] == []
        assert record["fast_path_ratio"] is not None
        assert record["decisions_fast"] > 0
        merged = record["cluster_stats"]["merged"]["counters"]
        assert merged["consensus.decisions_fast"] == record["decisions_fast"]


class TestLiveMatchesSimulated:
    def test_same_workload_same_decision_paths(self):
        """Live and simulated runs agree on every slot's decision path."""
        ops = put_get_workload(
            count=15, keys=("alpha", "beta"), proxies=[0, 1, 2], seed=11
        )

        # Simulated side: spaced schedule, stable leader — same setup the
        # batched-equivalence test proves decides identical logs.
        outcome = run_kv_workload(
            _factory(1.0, batch_size=4, window=2),
            n=3,
            ops=ops,
            until=len(ops) * 3.0 + 60.0,
        )
        assert not outcome.unfinished
        sim_merged = merge_decision_records(
            {
                pid: replica.decision_records()
                for pid, replica in enumerate(outcome.replicas)
            }
        )
        assert sim_merged["conflicts"] == []

        async def live():
            async with LocalCluster(
                3, _factory(0.5, batch_size=4, window=2), serve_clients=True
            ) as cluster:
                report = await run_loadgen(
                    {0: cluster.addresses}, clients=1, ops=ops, codec=cluster.codec
                )
                assert report.failed == 0, report.errors
                await cluster.wait_logs_converged(
                    timeout=20.0, expected_commands=len(ops)
                )
                return await scrape_cluster({0: cluster.addresses}, codec=cluster.codec)

        view = _run(live())

        assert view["decisions"]["conflicts"] == []
        assert slot_paths(view["decisions"]) == slot_paths(sim_merged)
        assert view["fast_path_ratio"] == sim_merged["fast_path_ratio"]
        sim_values = {
            slot: record["value_id"] for slot, record in sim_merged["slots"].items()
        }
        live_values = {
            slot: record["value_id"]
            for slot, record in view["decisions"]["slots"].items()
        }
        assert live_values == sim_values
