"""A node's side services on a consensus-only process.

A node whose process is not an SMR replica, and which has no client
service, still runs its side services: it answers stats, answers a
state or range transfer with one terminal ``upto=-1`` chunk (so the
fetchers return ``None`` and move on), and closes a link that submits a
command — with no error on the node.
"""

import asyncio

from repro.net.cluster import LocalCluster
from repro.net.codec import read_frame
from repro.net.transport import dial
from repro.net.stats import fetch_node_stats
from repro.net.wire import (
    ClientHello,
    ClientSubmit,
    RangeSnapshotRequest,
    SnapshotChunk,
    SnapshotRequest,
)
from repro.omega import static_omega_factory
from repro.protocols.twostep import twostep_task_factory
from repro.smr.kvstore import KVCommand
from repro.storage.recovery import fetch_range_state, fetch_snapshot

HARD_TIMEOUT = 60.0


def _consensus_factory():
    return twostep_task_factory(
        proposals={0: "a", 1: "b", 2: "c"},
        f=1,
        e=1,
        delta=0.5,
        omega_factory=static_omega_factory(0),
    )


def test_consensus_only_node_answers_stats_and_transfers_and_refuses_submits():
    async def live():
        async with LocalCluster(3, _consensus_factory()) as cluster:
            await cluster.wait_all_decided(timeout=20.0)
            node, codec = cluster.nodes[0], cluster.codec
            stats = await fetch_node_stats(node.address, codec, timeout=5.0)

            reader, writer = await dial(node.address, codec, ClientHello("raw"), 5.0)
            chunks = []
            for request in (
                SnapshotRequest("raw:state", 0, 0),
                RangeSnapshotRequest("raw:range", 0, 8, 16),
            ):
                writer.write(codec.encode(request))
                await writer.drain()
                chunks.append(await asyncio.wait_for(read_frame(reader, codec), 5.0))
            # A submit with nothing to serve it closes the link.
            writer.write(
                codec.encode(ClientSubmit("raw:0", KVCommand("put", "k", 1, command_id="c1")))
            )
            await writer.drain()
            closed = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()

            state = await fetch_snapshot(node.address, codec, timeout=5.0)
            ranged = await fetch_range_state(node.address, codec, 0, 8, 16, timeout=5.0)
            errors = [list(n.errors) for n in cluster.nodes]
            return stats, chunks, closed, state, ranged, errors

    stats, chunks, closed, state, ranged, errors = asyncio.run(
        asyncio.wait_for(live(), HARD_TIMEOUT)
    )
    assert stats.pid == 0 and "counters" in stats.snapshot
    assert [(type(c), c.request_id, c.seq, c.last, c.upto, c.payload) for c in chunks] == [
        (SnapshotChunk, "raw:state", 0, True, -1, b""),
        (SnapshotChunk, "raw:range", 0, True, -1, b""),
    ]
    assert closed == b""
    assert state is None and ranged is None
    assert errors == [[], [], []]
