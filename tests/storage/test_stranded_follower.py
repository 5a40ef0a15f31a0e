"""A durable follower behind a peer's snapshot frontier (ROADMAP 10).

A follower that gets ``Decide(BatchRef)`` for a slot whose body it lacks
asks the decider for the body. If the decider has snapshotted past that
slot it drops the request, and nothing else recovers the follower: no one
re-sends the decision, and gap repair only looks above the leader's own
frontier. The seeded run below strands one of three durable nodes; the
same run without persisters (nothing is ever truncated) converges.
"""

import pytest

from repro.net.codec import MessageCodec
from repro.sim.latency import RandomLatency
from repro.sim.simulation import Simulation
from repro.smr.client import put_get_workload
from repro.smr.log import SubmitCommand, smr_factory
from repro.storage import NodeStorage, ReplicaPersister

N = 3


def _applied_upto(tmp_path=None):
    """Every node's ``applied_upto`` after the seeded run; durable (one
    persister per node, snapshotting every 64 slots) iff *tmp_path*."""
    simulation = Simulation(
        smr_factory(1, 1, delta=1.0, batch_size=128, window=4),
        N,
        latency=RandomLatency(0.2, 1.5, seed=7),
    )
    ops = put_get_workload(
        700, keys=[f"k{i}" for i in range(32)], proxies=[0, 1], spacing=0.4
    )
    for op in ops:
        simulation.inject(op.time, op.proxy, SubmitCommand(op.command))
    persisters = []
    if tmp_path is not None:
        for pid, replica in enumerate(simulation.processes):
            persister = ReplicaPersister(
                NodeStorage(tmp_path, pid),
                replica,
                MessageCodec(),
                fsync=False,
                snapshot_every=64,
            )
            persister.recover()
            persisters.append(persister)

    def journal(_run) -> bool:
        # A live node journals once per activation; here, once per event.
        for persister in persisters:
            persister.after_activation()
        return False

    try:
        simulation.run(until=800, stop=journal)
    finally:
        for persister in persisters:
            persister.close()
    return [replica.applied_upto for replica in simulation.processes]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP 10b: a follower whose missing body lies behind the "
    "decider's snapshot frontier is never caught up",
)
def test_durable_followers_all_reach_the_same_applied_upto(tmp_path):
    applied = _applied_upto(tmp_path)
    assert len(set(applied)) == 1, applied


def test_the_same_run_without_persisters_converges():
    applied = _applied_upto()
    assert len(set(applied)) == 1 and applied[0] > 0, applied
