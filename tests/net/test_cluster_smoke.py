"""Cluster smoke runs: live KV service under injected crashes.

The CI ``cluster-smoke`` job runs exactly this module: a 3-node and a
5-node (f=1, e=1) :class:`LocalCluster` serving ~200 KV commands in total
while the highest-pid node is crash-stopped mid-run. Every command must
complete (after failover), survivors must converge to identical applied
logs, and the replicated-log safety checker must stay silent. The stats
endpoint is scraped mid-run — with the crashed node still in the address
book — and must report ballot-0 fast decisions and conflict-free merged
per-slot records. Each scenario is wrapped in a hard ``asyncio.wait_for``
so a wedged cluster fails the test instead of hanging the job.
"""

import asyncio

from repro.net.cluster import LocalCluster
from repro.net.loadgen import run_loadgen
from repro.net.stats import scrape_cluster
from repro.omega import static_omega_factory
from repro.protocols.twostep import TwoStepConfig
from repro.smr.client import check_logs_consistent, put_get_workload
from repro.smr.log import smr_factory

#: Hard wall per scenario; normal runtime is a few seconds.
HARD_TIMEOUT = 120.0


def _factory(delta: float = 0.05):
    return smr_factory(
        1,
        1,
        delta=delta,
        omega_factory=static_omega_factory(0),
        consensus_config=TwoStepConfig(f=1, e=1, delta=delta, is_object=True),
    )


async def _crash_and_serve(n: int, count: int, seed: int, clients: int):
    """Serve *count* commands on an *n*-node cluster; crash node n-1 mid-run.

    The workload is split so the crash deterministically lands mid-run:
    ~30% of the commands complete first, then the highest pid (never the
    Ω leader, pid 0) is crash-stopped, then the rest of the workload —
    including commands still designated to the dead proxy — must complete
    via client failover.
    """
    ops = put_get_workload(
        count,
        keys=("alpha", "beta", "gamma"),
        proxies=list(range(n)),
        seed=seed,
    )
    cut = max(1, count // 3)
    async with LocalCluster(
        n, _factory(), serve_clients=True
    ) as cluster:
        before = await run_loadgen(
            {0: cluster.addresses},
            clients=clients,
            ops=ops[:cut],
            codec=cluster.codec,
            timeout=5.0,
            client_id_prefix=f"smoke{n}a",
        )
        await cluster.crash(n - 1)
        # Mid-run scrape: the dead node is still in the address book, so
        # the scraper must tolerate it while the survivors keep serving.
        mid = await scrape_cluster({0: cluster.addresses}, codec=cluster.codec)
        assert mid["unreachable"] == [n - 1]
        assert mid["nodes"][n - 1] is None
        counters = mid["merged"]["counters"]
        assert counters.get("consensus.decisions_fast", 0) > 0
        assert mid["decisions"]["conflicts"] == []
        after = await run_loadgen(
            {0: cluster.addresses},
            clients=clients,
            ops=ops[cut:],
            codec=cluster.codec,
            timeout=5.0,
            client_id_prefix=f"smoke{n}b",
        )

        for report in (before, after):
            assert report.failed == 0, report.errors
        assert before.completed + after.completed == count
        shared_log = await cluster.wait_logs_converged(
            timeout=30.0, expected_commands=count
        )
        commands = [cid for cid in shared_log if not cid.startswith("__noop")]
        assert len(commands) >= count

        replicas = cluster.survivor_replicas()
        assert [node.pid for node in cluster.survivors] == list(range(n - 1))
        assert not check_logs_consistent(replicas)
        # Identical applied logs across all survivors, entry for entry.
        logs = [
            [command.command_id for command in replica.store.log]
            for replica in replicas
        ]
        assert all(log == logs[0] for log in logs)
        stores = [dict(replica.store.data) for replica in replicas]
        assert all(store == stores[0] for store in stores)

        # Post-convergence scrape: merged per-slot decision records must
        # be conflict-free (no two survivors claim different values for
        # one slot) and the fast path must have fired under the stable
        # pid-0 leader.
        final = await scrape_cluster({0: cluster.addresses}, codec=cluster.codec)
        assert final["decisions"]["conflicts"] == []
        assert final["merged"]["counters"]["consensus.decisions_fast"] > 0
        assert final["fast_path_ratio"] is not None
        assert final["decisions"]["slots"]
        return after


def test_smoke_three_nodes_with_crash():
    report = asyncio.run(
        asyncio.wait_for(_crash_and_serve(3, 80, seed=11, clients=4), HARD_TIMEOUT)
    )
    assert report.throughput > 0


def test_smoke_five_nodes_with_crash():
    report = asyncio.run(
        asyncio.wait_for(_crash_and_serve(5, 120, seed=12, clients=6), HARD_TIMEOUT)
    )
    assert report.throughput > 0

