"""Live cluster ≡ simulator: same machines, same decisions, same KV state.

The acceptance test of the runtime: an unchanged Figure 1 process factory
run under :class:`~repro.sim.simulation.Simulation` and under
:class:`~repro.net.cluster.LocalCluster` (real asyncio TCP) produces the
same consensus decisions, and a seeded
:func:`~repro.smr.client.put_get_workload` replayed live through
:func:`~repro.net.loadgen.run_loadgen` yields the same KV results and the
same replicated logs as :func:`~repro.smr.client.run_kv_workload`.
"""

import asyncio

from repro.core.values import BOTTOM
from repro.net.client import KVClient
from repro.net.cluster import LocalCluster
from repro.net.loadgen import run_loadgen
from repro.omega import static_omega_factory
from repro.protocols.twostep import TwoStepConfig, twostep_task_factory
from repro.sim.simulation import Simulation
from repro.smr.client import (
    check_logs_consistent,
    put_get_workload,
    run_kv_workload,
)
from repro.smr.log import smr_factory

#: Hard wall for any one live scenario; generous, never normally reached.
HARD_TIMEOUT = 60.0


def _run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, HARD_TIMEOUT))


def _task_factory(delta: float):
    # n = max(2e+f, 2f+1) = 3 for f=e=1; all-distinct proposals make the
    # value-ordered fast path pick the maximum, 'c'.
    return twostep_task_factory(
        proposals={0: "a", 1: "b", 2: "c"},
        f=1,
        e=1,
        delta=delta,
        omega_factory=static_omega_factory(0),
    )


def _smr_live_factory(delta: float = 0.5):
    return smr_factory(
        1,
        1,
        delta=delta,
        omega_factory=static_omega_factory(0),
        consensus_config=TwoStepConfig(f=1, e=1, delta=delta, is_object=True),
    )


class TestConsensusEquivalence:
    def test_live_fast_path_decides_the_simulators_value(self):
        # Simulated run: delta=1.0 simulated time units.
        simulation = Simulation(_task_factory(1.0), n=3)
        run = simulation.run_until_all_decide(until=100.0)
        sim_decisions = {pid: run.decisions[pid].value for pid in range(3)}
        assert set(sim_decisions.values()) == {"c"}

        # The same factory over real sockets (delta=0.5 real seconds keeps
        # the ballot timer clear of the fast path's few-ms commit).
        async def live():
            async with LocalCluster(3, _task_factory(0.5)) as cluster:
                return await cluster.wait_all_decided(timeout=20.0)

        live_decisions = _run(live())
        assert live_decisions == sim_decisions

    def test_live_decisions_are_recorded_once_per_node(self):
        async def live():
            async with LocalCluster(3, _task_factory(0.5)) as cluster:
                await cluster.wait_all_decided(timeout=20.0)
                return [node.decisions for node in cluster.nodes]

        for decisions in _run(live()):
            values = {value for _, value in decisions}
            assert values == {"c"}


class TestKVEquivalence:
    def test_loadgen_replays_the_simulated_workload_identically(self):
        ops = put_get_workload(
            count=15, keys=("alpha", "beta"), proxies=[0, 1, 2], seed=7
        )

        # Simulated: FixedLatency(1.0), the E10 harness.
        outcome = run_kv_workload(
            smr_factory(1, 1, omega_factory=static_omega_factory(0)),
            n=3,
            ops=ops,
            until=len(ops) * 3.0 + 60.0,
        )
        assert not outcome.unfinished
        assert not check_logs_consistent(outcome.replicas)

        # Live: one closed-loop client preserves the sequential order the
        # spaced simulated schedule implies, so per-command results match.
        async def live():
            async with LocalCluster(
                3, _smr_live_factory(), serve_clients=True
            ) as cluster:
                report = await run_loadgen(
                    {0: cluster.addresses}, clients=1, ops=ops, codec=cluster.codec
                )
                await cluster.wait_logs_converged(
                    timeout=20.0, expected_commands=len(ops)
                )
                replicas = cluster.survivor_replicas()
                logs = [
                    [entry.command_id for entry in replica.store.log]
                    for replica in replicas
                ]
                stores = [dict(replica.store.data) for replica in replicas]
                assert not check_logs_consistent(replicas)
                return report, logs, stores

        report, live_logs, live_stores = _run(live())

        assert report.failed == 0
        assert report.completed == len(ops)
        # Same results for every command, live and simulated.
        assert report.results == outcome.results

        sim_log = [
            entry.command_id for entry in outcome.replicas[0].store.log
        ]
        assert all(log == sim_log for log in live_logs)
        sim_store = dict(outcome.replicas[0].store.data)
        assert all(store == sim_store for store in live_stores)


class TestClientFailover:
    def test_client_completes_after_its_proxy_crashes(self):
        async def live():
            async with LocalCluster(
                3, _smr_live_factory(delta=1.0), serve_clients=True
            ) as cluster:
                client = KVClient(
                    cluster.addresses,
                    client_id="failover-test",
                    codec=cluster.codec,
                    timeout=2.0,
                    proxy=2,
                )
                try:
                    first = await client.put("k", "v1")
                    assert first.result == "v1"
                    assert client.proxy == 2

                    # Crash the client's proxy (not the Ω leader, node 0).
                    await cluster.crash(2)
                    second = await client.put("k", "v2")
                    assert client.proxy != 2  # failed over
                    assert not second.duplicate

                    # The dead proxy is blacklisted: preferring it again
                    # does not move the client back during the cooldown.
                    from repro.smr.kvstore import KVCommand

                    third = await client.submit(
                        KVCommand(
                            op="get", key="k", command_id="failover-get-1"
                        ),
                        proxy=2,
                    )
                    assert client.proxy != 2
                    assert third.result == "v2"
                finally:
                    await client.close()

        _run(live())


def test_survivors_satisfy_consensus_safety_after_crash():
    """A non-proxy crash is invisible to safety: logs still agree."""
    ops = put_get_workload(count=9, keys=("k",), proxies=[0, 1], seed=3)

    async def live():
        async with LocalCluster(
            3, _smr_live_factory(), serve_clients=True
        ) as cluster:
            first, rest = ops[:3], ops[3:]
            await run_loadgen(
                {0: cluster.addresses}, clients=1, ops=first, codec=cluster.codec
            )
            await cluster.crash(2)  # f=1 tolerated
            report = await run_loadgen(
                {0: cluster.addresses}, clients=1, ops=rest, codec=cluster.codec
            )
            assert report.failed == 0
            await cluster.wait_logs_converged(
                timeout=20.0, expected_commands=len(ops)
            )
            assert not check_logs_consistent(cluster.survivor_replicas())
            assert [node.pid for node in cluster.survivors] == [0, 1]

    _run(live())
