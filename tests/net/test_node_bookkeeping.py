"""Transport socket bookkeeping: inbound links, TCP_NODELAY, coalescing.

Pins the transport-level invariants the throughput path depends on: a
broadcast encodes its frame exactly once, inbound links are tracked in
one registry (connection task -> writer) and released when the
connection ends, ``stop()`` is safe to call twice and returns while the
node's peers are still up, and every TCP socket in the system has
Nagle's algorithm disabled.
"""

import asyncio
import socket
import time

from repro.net.node import NodeServer
from repro.net.transport import Outbox, enable_nodelay
from repro.net.cluster import LocalCluster
from repro.net.client import KVClient
from repro.net.wire import NodeHello
from repro.omega import static_omega_factory
from repro.protocols.twostep import TwoStepConfig
from repro.smr.log import smr_factory

HARD_TIMEOUT = 60.0


def _run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, HARD_TIMEOUT))


def _factory(delta=0.5):
    return smr_factory(
        1,
        1,
        delta=delta,
        omega_factory=static_omega_factory(0),
        consensus_config=TwoStepConfig(f=1, e=1, delta=delta, is_object=True),
    )


async def _wait_until(predicate, timeout=10.0, poll=0.02):
    async def loop():
        while not predicate():
            await asyncio.sleep(poll)

    await asyncio.wait_for(loop(), timeout)


class _SocketlessWriter:
    def get_extra_info(self, name):
        return None


def test_enable_nodelay_tolerates_missing_socket():
    enable_nodelay(_SocketlessWriter())  # must not raise off-TCP


def test_broadcast_encodes_the_frame_once():
    node = NodeServer(0, 3, _factory())
    outboxes = node.transport.outboxes
    outboxes.update({1: Outbox(), 2: Outbox()})
    node._broadcast(NodeHello(pid=0), include_self=False)
    # The same bytes object, not a re-encoding.
    assert outboxes[1].frames[0] is outboxes[2].frames[0]


def _links(node, kind):
    return node.wire_info()[kind]


class TestWriterBookkeeping:
    def test_inbound_writers_are_a_set_with_nodelay(self):
        async def live():
            async with LocalCluster(3, _factory()) as cluster:
                node = cluster.nodes[0]
                inbound = node.transport.inbound
                assert isinstance(inbound, dict)
                # Peer senders dial eagerly: both other nodes connect in.
                await _wait_until(lambda: _links(node, "peer_links_in") == 2)
                assert len(inbound) == 2
                for task, writer in inbound.items():
                    assert not task.done()
                    sock = writer.get_extra_info("socket")
                    assert (
                        sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                        != 0
                    )

        _run(live())

    def test_client_disconnect_releases_its_writer(self):
        async def live():
            async with LocalCluster(
                3, _factory(), serve_clients=True
            ) as cluster:
                node = cluster.nodes[0]
                inbound = node.transport.inbound
                await _wait_until(lambda: _links(node, "peer_links_in") == 2)
                baseline = len(inbound)
                client = KVClient(
                    cluster.addresses, client_id="bk", codec=cluster.codec
                )
                try:
                    await client.put("k", "v")
                    await _wait_until(lambda: _links(node, "client_links") == 1)
                    assert len(inbound) == baseline + 1
                finally:
                    await client.close()
                await _wait_until(lambda: len(inbound) == baseline)
                assert _links(node, "client_links") == 0

        _run(live())

    def test_stop_is_idempotent_and_clears_writers(self):
        async def live():
            cluster = LocalCluster(3, _factory())
            await cluster.start()
            node = cluster.nodes[0]
            await _wait_until(lambda: len(node.transport.inbound) >= 2)
            await cluster.stop()
            assert node.transport.inbound == {}
            assert _links(node, "peer_links_in") == 0
            # A second stop() must not raise on already-closed sockets.
            await node.stop()
            await cluster.stop()

        _run(live())

    def test_one_node_stops_while_its_peers_still_dial_in(self, monkeypatch):
        # Since CPython 3.12.1 (gh-79033) Server.wait_closed() returns only
        # once every accepted connection has closed. Give this interpreter
        # those semantics: a node whose peers are still up must close its
        # inbound links before it waits on its server, or never return.
        server_type = asyncio.base_events.Server
        original = server_type.wait_closed

        async def wait_closed_since_3_12_1(self):
            if self._waiters is None:
                return
            waiter = self._loop.create_future()
            self._waiters.append(waiter)
            await waiter

        async def live():
            cluster = LocalCluster(3, _factory())
            await cluster.start()
            node = cluster.nodes[0]
            try:
                await _wait_until(lambda: _links(node, "peer_links_in") == 2)
                monkeypatch.setattr(server_type, "wait_closed", wait_closed_since_3_12_1)
                started = time.perf_counter()
                try:
                    await asyncio.wait_for(node.stop(), 2.0)
                except asyncio.TimeoutError:
                    return None
                return time.perf_counter() - started
            finally:
                monkeypatch.setattr(server_type, "wait_closed", original)
                await cluster.stop()

        elapsed = _run(live())
        assert elapsed is not None, "stop() did not return while peers were up"
        assert elapsed < 2.0
