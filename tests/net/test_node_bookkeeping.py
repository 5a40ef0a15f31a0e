"""NodeServer socket bookkeeping: writer set, TCP_NODELAY, coalescing.

Pins the transport-level invariants the throughput path depends on: a
broadcast encodes its frame exactly once, inbound writers are tracked in
a set and released when the connection ends, ``stop()`` is safe to call
on an already-closing writer set, and every TCP socket in the system has
Nagle's algorithm disabled.
"""

import asyncio
import socket
from collections import deque

from repro.net.node import NodeServer, enable_nodelay
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
    node._outbox = {1: deque(), 2: deque()}
    node._outbox_wake = {1: asyncio.Event(), 2: asyncio.Event()}
    node._broadcast(NodeHello(pid=0), include_self=False)
    # The same bytes object, not a re-encoding.
    assert node._outbox[1][0] is node._outbox[2][0]


class TestWriterBookkeeping:
    def test_inbound_writers_are_a_set_with_nodelay(self):
        async def live():
            async with LocalCluster(3, _factory()) as cluster:
                node = cluster.nodes[0]
                assert isinstance(node._writers, set)
                # Peer senders dial eagerly: both other nodes connect in.
                await _wait_until(lambda: len(node._writers) >= 2)
                for writer in node._writers:
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
                await _wait_until(lambda: len(node._writers) >= 2)
                baseline = len(node._writers)
                client = KVClient(
                    cluster.addresses, client_id="bk", codec=cluster.codec
                )
                try:
                    await client.put("k", "v")
                    await _wait_until(lambda: len(node._writers) == baseline + 1)
                finally:
                    await client.close()
                await _wait_until(lambda: len(node._writers) == baseline)

        _run(live())

    def test_stop_is_idempotent_and_clears_writers(self):
        async def live():
            cluster = LocalCluster(3, _factory())
            await cluster.start()
            node = cluster.nodes[0]
            await _wait_until(lambda: len(node._writers) >= 2)
            await cluster.stop()
            assert node._writers == set()
            # A second stop() must not raise on already-closed sockets.
            await node.stop()
            await cluster.stop()

        _run(live())
