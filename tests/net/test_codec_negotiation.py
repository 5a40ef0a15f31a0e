"""The link handshake on the live runtime: v1 hello, then binary v2.

The contract under test: every link opens with a v1 hello and a
``HelloAck``; an accepted link speaks binary v2 in both directions, and a
hello from a different registry or a pre-v2 build is refused with both
registry hashes named — never downgraded, never decoded past the hello,
and retried only on the backoff schedule.
"""

import asyncio
import logging
import time

import pytest

from repro.net.client import KVClient
from repro.net.cluster import LocalCluster
from repro.net.codec import (
    WIRE_VERSION_JSON,
    MessageCodec,
    MessageRegistry,
    default_registry,
    read_frame,
)
from repro.net.loadgen import run_loadgen
from repro.net.stats import fetch_node_stats
from repro.net.node import HandshakeRefused, KVService, NodeServer, dial
from repro.net.wire import ClientHello, ClientSubmit, HelloAck, NodeHello
from repro.omega import static_omega_factory
from repro.protocols.twostep import TwoStepConfig
from repro.shard import ShardedCluster, ShardRouter
from repro.shard.placement import PlacementMap
from repro.smr import check_logs_consistent
from repro.smr.kvstore import KVCommand
from repro.smr.log import smr_factory
from repro.storage.recovery import fetch_range_state, fetch_snapshot

HARD_TIMEOUT = 60.0


def _factory(delta: float = 0.05):
    return smr_factory(
        1,
        1,
        delta=delta,
        omega_factory=static_omega_factory(0),
        consensus_config=TwoStepConfig(f=1, e=1, delta=delta, is_object=True),
        batch_size=16,
        window=1,
    )


def _run(coroutine):
    asyncio.run(asyncio.wait_for(coroutine, HARD_TIMEOUT))


def _filtered_codec(drop: str = "WrongShard") -> MessageCodec:
    """A codec whose registry lacks one wire name: a skewed build."""
    full = default_registry()
    registry = MessageRegistry()
    for name in full.names():
        if name != drop:
            registry.register(full.type_of(name), name=name)
    return MessageCodec(registry)


def _attempts_within(window: float, initial: float, cap: float) -> int:
    """Connect attempts a backed-off dialer can make in *window* seconds."""
    attempts, elapsed, backoff = 1, 0.0, initial
    while elapsed + backoff <= window:
        elapsed += backoff
        backoff = min(backoff * 2, cap)
        attempts += 1
    return attempts


async def _wait_until(predicate, timeout=10.0, poll=0.02):
    async def loop():
        while not predicate():
            await asyncio.sleep(poll)

    await asyncio.wait_for(loop(), timeout)


async def _drive(cluster: LocalCluster, count: int = 40) -> None:
    async with cluster:
        report = await run_loadgen(
            {0: cluster.addresses},
            clients=2,
            count=count,
            pipeline=8,
            codec=cluster.codec,
        )
        assert report.failed == 0, report.errors
        await cluster.wait_logs_converged(timeout=20.0, expected_commands=count)
        assert check_logs_consistent(cluster.survivor_replicas()) == []


def test_all_binary_cluster_converges():
    _run(_drive(LocalCluster(3, _factory(), serve_clients=True)))


def test_binary_peers_actually_negotiate_v2():
    async def live():
        async with LocalCluster(3, _factory(), serve_clients=False) as cluster:
            # Every node dials every peer, and every hello is accepted.
            await _wait_until(
                lambda: all(
                    node.wire_info()["peer_links_out"] == 2
                    and node.wire_info()["peer_links_in"] == 2
                    for node in cluster.nodes
                )
            )
            acceptor = cluster.nodes[1]
            _reader, writer = await dial(
                acceptor.address, cluster.codec, NodeHello(0), timeout=1.0
            )
            try:
                await _wait_until(lambda: acceptor.wire_info()["peer_links_in"] == 3)
            finally:
                writer.close()
            counters = acceptor.obs.snapshot()["counters"]
            assert "net.hello_rejected" not in counters

    _run(live())


def test_registry_skew_is_refused_with_both_hashes(caplog):
    window = 2.0

    async def live():
        skewed = _filtered_codec()
        assert skewed.registry_hash != MessageCodec().registry_hash
        nodes = [
            NodeServer(pid, 3, _factory(), codec=skewed if pid == 2 else None)
            for pid in range(3)
        ]
        started = time.perf_counter()
        served_senders = []
        for node in nodes[:2]:
            serve_peer = node._serve_peer

            async def spy(reader, sender, serve_peer=serve_peer):
                served_senders.append(sender)
                await serve_peer(reader, sender)

            node._serve_peer = spy
        addresses = [await node.bind() for node in nodes]
        for node in nodes:
            await node.launch(addresses)
        try:
            # The dialer's error names both registries.
            with pytest.raises(HandshakeRefused) as refused:
                await dial(addresses[0], skewed, NodeHello(2), timeout=1.0)
            assert skewed.registry_hash in str(refused.value)
            assert nodes[0].codec.registry_hash in str(refused.value)
            await asyncio.sleep(window)
            elapsed = time.perf_counter() - started
        finally:
            for node in nodes:
                await node.stop()
        return nodes, served_senders, elapsed

    with caplog.at_level(logging.ERROR, logger="repro.net"):
        nodes, served_senders, elapsed = asyncio.run(
            asyncio.wait_for(live(), HARD_TIMEOUT)
        )
    counters = [node.obs.snapshot()["counters"] for node in nodes]
    # Both acceptors of node 2's hellos refused them, and node 2 refused
    # theirs; the good pair still linked up with each other.
    assert counters[0].get("net.hello_rejected", 0) >= 1
    assert counters[1].get("net.hello_rejected", 0) >= 1
    assert counters[2].get("net.hello_rejected", 0) >= 2
    assert set(served_senders) == {0, 1}
    # No frame past the hello was ever decoded on a refused link.
    assert not any(name.startswith("recv_bytes.") for name in counters[2])
    # Both ends logged the refusal with the other side's registry.
    refusals = [r.getMessage() for r in caplog.records if "refused" in r.getMessage()]
    assert any(nodes[2].codec.registry_hash in text for text in refusals)
    assert any(nodes[0].codec.registry_hash in text for text in refusals)
    # Retries follow the backoff schedule: no reconnect storm.
    bound = _attempts_within(
        elapsed, nodes[2].reconnect_initial, nodes[2].reconnect_max
    )
    for peer in (0, 1):
        attempts = counters[2].get(f"net.reconnects.p{peer}", 0)
        assert 1 <= attempts <= bound, (peer, attempts, bound)
    assert counters[0].get("net.reconnects.p2", 0) <= bound


def test_pre_v2_client_is_refused_before_any_frame_is_decoded():
    async def live():
        # Bound, not launched: the acceptor alone, no peer links.
        node = NodeServer(0, 3, _factory(), client_service=KVService())
        decoded = []
        decode_payload = node.codec.decode_payload

        def counting(payload):
            decoded.append(payload[0])
            return decode_payload(payload)

        node.codec.decode_payload = counting
        address = await node.bind()
        try:
            reader, writer = await asyncio.open_connection(*address)
            # A pre-v2 client: bare v1 hello, then a v1 submit right away.
            writer.write(node.codec.encode(ClientHello("legacy"), WIRE_VERSION_JSON))
            writer.write(
                node.codec.encode(
                    ClientSubmit("legacy:0", KVCommand("put", "k", "v", "legacy-1")),
                    WIRE_VERSION_JSON,
                )
            )
            await writer.drain()
            ack = await read_frame(reader, MessageCodec())
            assert await reader.read() == b""  # the acceptor closed the link
            writer.close()
        finally:
            await node.stop()
        return node, ack, decoded

    node, ack, decoded = asyncio.run(asyncio.wait_for(live(), HARD_TIMEOUT))
    assert ack == HelloAck(0, node.codec.registry_hash)
    assert decoded == [WIRE_VERSION_JSON]  # the hello, nothing after it
    assert node.obs.snapshot()["counters"]["net.hello_rejected"] == 1


@pytest.mark.parametrize("sharded", [False, True], ids=["kv", "sharded"])
@pytest.mark.parametrize(
    "payload",
    [KVCommand("put", "a", 1), 5],
    ids=["command-without-id", "not-a-command"],
)
def test_malformed_submit_is_refused_and_the_link_closed(payload, sharded, caplog):
    async def live():
        if sharded:
            harness = ShardedCluster(2, 3, _factory())
        else:
            harness = LocalCluster(3, _factory(), serve_clients=True)
        async with harness as cluster:
            if sharded:
                nodes = [n for group in cluster.clusters.values() for n in group.nodes]
                groups, placement = cluster.addresses_by_group, cluster.placement
            else:
                nodes = cluster.nodes
                groups, placement = {0: cluster.addresses}, PlacementMap.initial(1)
            reader, writer = await dial(
                nodes[0].address, cluster.codec, ClientHello("raw"), timeout=1.0
            )
            writer.write(cluster.codec.encode(ClientSubmit("raw:0", payload)))
            await writer.drain()
            # The acceptor refuses the submit and closes the link.
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
            pending = dict(nodes[0].client_service._pending)
            router = ShardRouter(groups, placement, codec=cluster.codec)
            try:
                reply = await router.submit(KVCommand("put", "a", 2, command_id="good-1"))
            finally:
                await router.close()
            return nodes, pending, reply

    with caplog.at_level(logging.WARNING, logger="repro.net"):
        nodes, pending, reply = asyncio.run(asyncio.wait_for(live(), HARD_TIMEOUT))
    refusals = [r for r in caplog.records if "refused submit" in r.getMessage()]
    assert len(refusals) == 1
    assert pending == {}
    assert reply.command_id == "good-1" and not reply.duplicate
    assert [node.errors for node in nodes] == [[] for _ in nodes]
    counters = nodes[0].obs.snapshot()["counters"]
    assert counters["net.submit_rejected"] == 1


def test_silent_receiver_fails_the_handshake():
    # A server that never answers the hello must fail the dial after the
    # hello timeout — the request path then fails over — not hang.
    async def live():
        async def mute(reader, writer):
            await asyncio.sleep(10)

        server = await asyncio.start_server(mute, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            client = KVClient(
                [("127.0.0.1", port)], client_id="probe", hello_timeout=0.2
            )
            started = time.perf_counter()
            with pytest.raises(asyncio.TimeoutError):
                await client._ensure_connected()
            assert time.perf_counter() - started < 2.0
            await client.close()
        finally:
            server.close()
            await server.wait_closed()

    _run(live())


def test_binary_client_negotiates_with_binary_cluster():
    async def live():
        async with LocalCluster(3, _factory(), serve_clients=True) as cluster:
            client = KVClient(cluster.addresses, client_id="c0", codec=cluster.codec)
            try:
                reply = await client.put("k", "v")
                assert reply.result is None or reply.result == "v"
                assert cluster.nodes[client.proxy].wire_info()["client_links"] == 1
                reply = await client.get("k")
                assert reply.result == "v"
            finally:
                await client.close()

    _run(live())


def test_client_fails_over_past_a_skewed_proxy():
    async def live():
        async with LocalCluster(3, _factory(), serve_clients=True) as cluster:
            good = KVClient(cluster.addresses, client_id="good", codec=cluster.codec)
            skewed = KVClient(
                cluster.addresses,
                client_id="skewed",
                codec=_filtered_codec(),
                max_attempts=2,
                backoff_initial=0.01,
            )
            try:
                assert (await good.put("k", "v")).command_id
                with pytest.raises(Exception) as failed:
                    await skewed.put("k", "w")
            finally:
                await good.close()
                await skewed.close()
            return cluster, failed.value

    cluster, error = asyncio.run(asyncio.wait_for(live(), HARD_TIMEOUT))
    assert "refused the hello" in str(error)
    assert sum(
        node.obs.snapshot()["counters"].get("net.hello_rejected", 0)
        for node in cluster.nodes
    ) == 2


def test_control_plane_fetches_shake_hands_first():
    # Every answer arrives after a HelloAck, so a fetcher that skipped
    # the shared handshake would read the ack as its reply and fail.
    async def live():
        async with LocalCluster(3, _factory(), serve_clients=True) as cluster:
            node = cluster.nodes[0]
            accepted = []
            ack_hello = node._ack_hello

            async def spy(hello, writer):
                ok = await ack_hello(hello, writer)
                accepted.append((getattr(hello, "client_id", None), ok))
                return ok

            node._ack_hello = spy
            client = KVClient(cluster.addresses, client_id="cp", codec=cluster.codec)
            try:
                await client.put("moved", "v")
            finally:
                await client.close()
            await cluster.wait_logs_converged(timeout=20.0, expected_commands=1)
            stats = await fetch_node_stats(node.address, cluster.codec)
            state = await fetch_snapshot(node.address, cluster.codec)
            ranged = await fetch_range_state(node.address, cluster.codec, 0, 16, 16)
            return accepted, stats, state, ranged

    accepted, stats, state, ranged = asyncio.run(asyncio.wait_for(live(), HARD_TIMEOUT))
    assert stats.pid == 0
    assert state["log_entries"] == 1
    assert ranged["data"] == {"moved": "v"}
    assert ("stats-scraper", True) in accepted
    assert ("snapshot-fetch", True) in accepted
    assert ("range-fetch", True) in accepted
