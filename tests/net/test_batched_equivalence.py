"""Batched live run ≡ batched simulated run, down to the decided slots.

The PR-2 equivalence test (``test_cluster.py``) pins the unbatched path;
this one turns the throughput knobs on (``batch_size > 1``, ``window > 1``)
and shows the live cluster and the simulator still decide *identical*
logs for the same seeded workload: same slot values (including the
deterministic ``__batch:{pid}:{seq}__`` identities), same applied command
sequence, same stores, same per-command results. That is the whole
claim of the throughput layer — it lives strictly above the unchanged
Figure 1 slot protocol, so it cannot change what gets decided.
"""

import asyncio

from repro.net.cluster import LocalCluster
from repro.net.loadgen import run_loadgen
from repro.omega import static_omega_factory
from repro.protocols.twostep import TwoStepConfig
from repro.smr import CommandBatch, check_logs_consistent
from repro.smr.client import put_get_workload, run_kv_workload
from repro.smr.log import smr_factory

HARD_TIMEOUT = 60.0
BATCH, WINDOW = 4, 2


def _run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, HARD_TIMEOUT))


def _batched_factory(delta):
    return smr_factory(
        1,
        1,
        delta=delta,
        omega_factory=static_omega_factory(0),
        consensus_config=TwoStepConfig(f=1, e=1, delta=delta, is_object=True),
        batch_size=BATCH,
        window=WINDOW,
    )


def _slot_structure(replica):
    """(batch id, member ids) per decided slot — the comparable log shape."""
    return {
        slot: (value.batch_id, tuple(c.command_id for c in value.commands))
        for slot, value in replica.decided.items()
    }


class TestBatchedEquivalence:
    def test_batched_live_and_simulated_decide_identical_logs(self):
        ops = put_get_workload(
            count=15, keys=("alpha", "beta"), proxies=[0, 1, 2], seed=11
        )

        # Simulated: FixedLatency(1.0), batching on. The spaced schedule
        # means each command decides before the next arrives, so every
        # slot holds a deterministic singleton CommandBatch.
        outcome = run_kv_workload(
            _batched_factory(1.0), n=3, ops=ops, until=len(ops) * 3.0 + 60.0
        )
        assert not outcome.unfinished
        assert check_logs_consistent(outcome.replicas) == []
        sim_proxy = outcome.replicas[0]
        assert all(type(value) is CommandBatch for value in sim_proxy.decided.values())
        sim_structure = _slot_structure(sim_proxy)
        sim_decided = dict(sim_proxy.decided)
        sim_log = [entry.command_id for entry in sim_proxy.store.log]
        sim_store = dict(sim_proxy.store.data)

        # Live: the same factory with batching on, one closed-loop client
        # preserving the sequential submission order the spaced simulated
        # schedule implies.
        async def live():
            async with LocalCluster(
                3, _batched_factory(0.5), serve_clients=True
            ) as cluster:
                report = await run_loadgen(
                    {0: cluster.addresses}, clients=1, ops=ops, codec=cluster.codec
                )
                await cluster.wait_logs_converged(
                    timeout=20.0, expected_commands=len(ops)
                )
                replicas = cluster.survivor_replicas()
                assert check_logs_consistent(replicas) == []
                return (
                    report,
                    [_slot_structure(replica) for replica in replicas],
                    [dict(replica.decided) for replica in replicas],
                    [
                        [entry.command_id for entry in replica.store.log]
                        for replica in replicas
                    ],
                    [dict(replica.store.data) for replica in replicas],
                )

        report, structures, decideds, logs, stores = _run(live())

        assert report.failed == 0
        assert report.completed == len(ops)
        # Same per-command results, live and simulated.
        assert report.results == outcome.results
        # Same decided slots — member order and the deterministic batch
        # identities — on every live replica.
        assert all(structure == sim_structure for structure in structures)
        assert all(decided == sim_decided for decided in decideds)
        # Same applied sequence and same final store.
        assert all(log == sim_log for log in logs)
        assert all(store == sim_store for store in stores)
