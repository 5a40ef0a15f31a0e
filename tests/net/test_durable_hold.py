"""The write-ahead property under the storage writer: hold the outbox.

A durable node hands its WAL commits to a writer thread and keeps
serving; what an activation sends waits in a hold until the writer
reports the commit's ticket durable. These tests block that thread's
``fsync`` on a gate, per node, and watch the wire: no ``Propose`` leaves
a proxy whose proposal is not on disk, no ``TwoB`` leaves a follower
whose vote is not, and no client answer — a fresh result or a retry's —
leaves before the decision it reports. Opening the gate lets everything
through. A kill -9 while frames are held drops them for good, and the
restarted cluster still agrees. Finally, no writer thread outlives its
node.
"""

import asyncio
import contextlib
import os
import threading

import pytest

from repro.net.client import KVClient
from repro.net.cluster import LocalCluster
from repro.obs import message_label
from repro.omega import static_omega_factory
from repro.protocols.twostep import TwoStepConfig
from repro.smr import KVCommand
from repro.smr.log import smr_factory
from repro.storage import writer as writer_module
from repro.storage.writer import WRITER_THREAD_NAME

HARD_TIMEOUT = 60.0
HELD_FOR = 0.3  # seconds a blocked fsync must keep frames off the wire


def _run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, HARD_TIMEOUT))


def _factory(delta=0.05):
    return smr_factory(
        1,
        1,
        delta=delta,
        omega_factory=static_omega_factory(0),
        consensus_config=TwoStepConfig(f=1, e=1, delta=delta, is_object=True),
        batch_size=8,
        window=4,
    )


class _FsyncGate:
    """Blocks the storage writer's fsync for the nodes named in ``armed``.

    A writer thread's name ends with its node directory, so the gate
    tells the nodes apart without touching the code under test.
    """

    def __init__(self):
        self.armed = set()
        self.opened = threading.Event()
        self._fsync = os.fsync

    def fsync(self, fd):
        name = threading.current_thread().name
        if any(name.endswith(f"node-{pid}") for pid in self.armed):
            assert self.opened.wait(HARD_TIMEOUT), "the gate was never opened"
        self._fsync(fd)


@pytest.fixture
def gate(monkeypatch):
    gate = _FsyncGate()
    monkeypatch.setattr(writer_module.os, "fsync", gate.fsync)
    yield gate
    gate.opened.set()  # never leave a writer blocked behind a failed test


def _wire_frames(node, kind):
    """Frames of *kind* (``Propose``, ``TwoB`` ...) *node* read off the wire.

    ``recv_bytes.*`` counts wire frames only; self-deliveries carry no
    bytes, so a proxy's own ``TwoB`` never shows up here.
    """
    counters = node.obs.registry.snapshot()["counters"]
    return sum(
        value
        for name, value in counters.items()
        if name.startswith("recv_bytes.") and name.endswith(f".{kind}")
    )


def _put(key):
    return KVCommand(op="put", key=key, value=1, command_id=f"hold-{key}")


def _cluster(tmp_path):
    return LocalCluster(3, _factory(), serve_clients=True, data_dir=str(tmp_path))


@contextlib.asynccontextmanager
async def _gated_cluster(tmp_path, gate):
    """A running durable cluster; on the way out the gate opens first,
    so a failed assertion never leaves ``stop()`` joining a blocked writer."""
    cluster = _cluster(tmp_path)
    await cluster.start()
    try:
        yield cluster
    finally:
        gate.opened.set()
        await cluster.stop()


def _client(cluster, name):
    return KVClient(cluster.addresses, client_id=name, codec=cluster.codec, timeout=10.0)


def _writer_threads(tmp_path):
    return sorted(
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(WRITER_THREAD_NAME) and str(tmp_path) in thread.name
    )


def test_proxy_holds_its_propose_until_the_proposal_is_durable(tmp_path, gate):
    async def scenario():
        async with _gated_cluster(tmp_path, gate) as cluster:
            proxy, followers = cluster.nodes[0], cluster.nodes[1:]
            gate.armed.add(0)
            client = _client(cluster, "held-propose")
            answer = asyncio.ensure_future(client.submit(_put("a"), proxy=0))
            await asyncio.sleep(HELD_FOR)
            assert proxy.transport.held, "the proposal's frames should be held"
            assert all(_wire_frames(node, "Propose") == 0 for node in followers)
            assert not answer.done()

            gate.opened.set()
            reply = await answer
            assert reply.command_id == "hold-a"
            assert all(_wire_frames(node, "Propose") >= 1 for node in followers)
            assert not proxy.transport.held
            snapshot = proxy.obs.registry.snapshot()
            assert snapshot["histograms"]["storage.durable_wait_seconds"]["count"] >= 1
            assert snapshot["gauges"]["storage.held_frames_hwm"] >= 2
            await client.close()

    _run(scenario())


def test_followers_hold_their_twob_until_the_vote_is_durable(tmp_path, gate):
    async def scenario():
        async with _gated_cluster(tmp_path, gate) as cluster:
            proxy, followers = cluster.nodes[0], cluster.nodes[1:]
            gate.armed.update({1, 2})
            client = _client(cluster, "held-twob")
            answer = asyncio.ensure_future(client.submit(_put("b"), proxy=0))
            while not all(_wire_frames(node, "Propose") for node in followers):
                await asyncio.sleep(0.01)
            await asyncio.sleep(HELD_FOR)
            assert all(node.transport.held for node in followers)
            assert _wire_frames(proxy, "TwoB") == 0
            assert not answer.done()

            gate.opened.set()
            assert (await answer).command_id == "hold-b"
            assert _wire_frames(proxy, "TwoB") >= 1
            await client.close()

    _run(scenario())


def test_a_retry_of_a_finished_command_waits_for_the_decision_to_be_durable(
    tmp_path, gate
):
    async def scenario():
        async with _gated_cluster(tmp_path, gate) as cluster:
            proxy = cluster.nodes[0]
            replica = proxy.process
            deliver = replica.on_message

            def arm_on_first_wire_twob(ctx, sender, message):
                # Block the proxy's fsyncs from the first follower vote on:
                # the activation that decides (and applies) the command
                # hands a commit the writer cannot finish.
                if sender != 0 and message_label(message).endswith("TwoB"):
                    gate.armed.add(0)
                return deliver(ctx, sender, message)

            replica.on_message = arm_on_first_wire_twob
            first = _client(cluster, "first")
            answer = asyncio.ensure_future(first.submit(_put("c"), proxy=0))
            while "hold-c" not in replica.results:
                await asyncio.sleep(0.01)
            assert 0 in gate.armed and proxy.transport.held

            retry_client = _client(cluster, "retry")
            retry = asyncio.ensure_future(retry_client.submit(_put("c"), proxy=0))
            await asyncio.sleep(HELD_FOR)
            # Finished, answered from replica.results — and still held.
            assert not answer.done() and not retry.done()

            gate.opened.set()
            first_reply, retry_reply = await asyncio.gather(answer, retry)
            assert first_reply.command_id == retry_reply.command_id == "hold-c"
            assert retry_reply.result == first_reply.result
            await first.close()
            await retry_client.close()

    _run(scenario())


def test_kill_while_frames_are_held_drops_them_and_recovery_agrees(tmp_path, gate):
    async def scenario():
        async with _gated_cluster(tmp_path, gate) as cluster:
            followers = cluster.nodes[1:]
            gate.armed.add(0)
            client = _client(cluster, "killed")
            answer = asyncio.ensure_future(client.submit(_put("d"), proxy=0))
            await asyncio.sleep(HELD_FOR)
            assert cluster.nodes[0].transport.held
            # Open the gate so the dying node's writer can be joined, and
            # kill in the same loop step: the durable report arrives on
            # the loop only after stop() dropped the hold.
            gate.opened.set()
            await cluster.kill(0)
            answer.cancel()
            await asyncio.sleep(HELD_FOR)
            assert all(_wire_frames(node, "Propose") == 0 for node in followers)

            await cluster.restart(0)
            for key in ("e", "f", "g"):
                await client.submit(_put(key), proxy=1)
            log = await cluster.wait_logs_converged(timeout=30.0, expected_commands=3)
            assert {"hold-e", "hold-f", "hold-g"} <= set(log)
            await client.close()

    _run(scenario())


def test_no_writer_thread_outlives_its_node(tmp_path):
    async def scenario():
        cluster = _cluster(tmp_path)
        await cluster.start()
        client = _client(cluster, "threads")
        await client.submit(_put("h"), proxy=0)
        assert len(_writer_threads(tmp_path)) == 3
        await cluster.kill(1)
        assert len(_writer_threads(tmp_path)) == 2
        await cluster.restart(1)
        assert _writer_threads(tmp_path) == sorted(
            f"{WRITER_THREAD_NAME} {tmp_path / f'node-{pid}'}" for pid in range(3)
        )
        await client.close()
        await cluster.stop()
        assert _writer_threads(tmp_path) == []

    _run(scenario())
