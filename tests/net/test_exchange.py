"""The control-plane exchange against a peer that shakes hands, then says nothing.

Stats scrapes and both state transfers run one request over a throwaway
client link (``repro.net.transport.exchange``). A peer that acks the
hello and never answers must cost each of them no more than its timeout,
and must not be left holding an open socket.
"""

import asyncio
import time

import pytest

from repro.net.codec import MessageCodec, read_frame
from repro.net.stats import fetch_node_stats
from repro.net.wire import ClientHello, HelloAck
from repro.storage.recovery import fetch_range_state, fetch_snapshot

HARD_TIMEOUT = 30.0
TIMEOUT = 0.5

FETCHES = {
    "stats": lambda address, codec: fetch_node_stats(address, codec, timeout=TIMEOUT),
    "snapshot": lambda address, codec: fetch_snapshot(address, codec, timeout=TIMEOUT),
    "range": lambda address, codec: fetch_range_state(
        address, codec, 0, 8, 16, timeout=TIMEOUT
    ),
}


def test_a_silent_peer_times_out_every_fetch_and_leaves_no_socket_open():
    codec = MessageCodec()

    async def live():
        requests, eofs = [], []

        async def silent(reader, writer):
            hello = await read_frame(reader, codec)
            assert isinstance(hello, ClientHello)
            writer.write(codec.encode(HelloAck(True, codec.registry_hash)))
            await writer.drain()
            requests.append(type(await read_frame(reader, codec)).__name__)
            # Never answer; wait for the fetcher to hang up.
            eofs.append(await reader.read() == b"")
            writer.close()

        server = await asyncio.start_server(silent, "127.0.0.1", 0)
        address = server.sockets[0].getsockname()[:2]
        elapsed = {}
        try:
            for name, fetch in FETCHES.items():
                started = time.perf_counter()
                with pytest.raises(asyncio.TimeoutError):
                    await fetch(address, codec)
                elapsed[name] = time.perf_counter() - started
            deadline = time.perf_counter() + 5.0
            while len(eofs) < len(FETCHES) and time.perf_counter() < deadline:
                await asyncio.sleep(0.01)
        finally:
            server.close()
        return requests, eofs, elapsed

    requests, eofs, elapsed = asyncio.run(asyncio.wait_for(live(), HARD_TIMEOUT))
    assert requests == ["StatsRequest", "SnapshotRequest", "RangeSnapshotRequest"]
    assert all(seconds < 2.0 for seconds in elapsed.values()), elapsed
    assert eofs == [True, True, True]  # every link was closed by the fetcher
