"""Batch references and the O(completed) reply path on real sockets.

The simulator-side semantics live in ``tests/smr/test_batch_ref.py``;
here the same layer runs over TCP with the binary codec, where the
saving is bytes and codec time: a ``Decide`` for a 64-command batch must
cost a reference, not a body. The second half pins what ``KVService``
answers without a submission reaching the replica.
"""

import asyncio

from repro.net.client import KVClient
from repro.net.cluster import LocalCluster
from repro.net.codec import make_codec
from repro.omega import static_omega_factory
from repro.protocols.twostep import TwoStepConfig
from repro.smr import BatchRef, CommandBatch, KVCommand, check_logs_consistent
from repro.smr.log import smr_factory
from repro.storage.records import WalDecision, WalSlotState, decode_record
from repro.storage.wal import list_segments, scan_segment

HARD_TIMEOUT = 90.0


def _run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, HARD_TIMEOUT))


def _factory(batch_size, delta=0.5):
    return smr_factory(
        1,
        1,
        delta=delta,
        omega_factory=static_omega_factory(0),
        consensus_config=TwoStepConfig(f=1, e=1, delta=delta, is_object=True),
        batch_size=batch_size,
    )


def _puts(prefix, count):
    return [
        KVCommand(op="put", key=f"key-{i % 7}", value=i, command_id=f"{prefix}-{i}")
        for i in range(count)
    ]


def _counters(cluster):
    merged = {}
    for node in cluster.survivors:
        for name, value in node.stats_snapshot()["counters"].items():
            merged[name] = merged.get(name, 0) + value
    return merged


class TestLiveBatchRef:
    def test_decides_cost_a_reference_and_survivor_logs_agree(self):
        count = 600

        async def live():
            codec = make_codec("binary")
            async with LocalCluster(
                3, _factory(batch_size=64), serve_clients=True, codec=codec
            ) as cluster:
                client = KVClient(
                    cluster.addresses, client_id="refs", codec=codec, proxy=0
                )
                try:
                    replies = await client.run_pipelined(
                        _puts("a", count), window=128, proxy=0
                    )
                    assert len(replies) == count
                    await cluster.wait_logs_converged(
                        timeout=30.0, expected_commands=count
                    )
                    before = _counters(cluster)
                    # A follower dies; the proxy still believes it holds
                    # bodies, which costs nothing but queued references.
                    await cluster.crash(2)
                    replies = await client.run_pipelined(
                        _puts("b", count), window=128, proxy=0
                    )
                    assert len(replies) == count
                    await cluster.wait_logs_converged(
                        timeout=30.0, expected_commands=2 * count
                    )
                finally:
                    await client.close()
                replicas = cluster.survivor_replicas()
                assert len(replicas) == 2
                assert check_logs_consistent(replicas) == []
                assert [len(r.store.log) for r in replicas] == [2 * count] * 2
                return before, [len(r._bodies) for r in replicas]

        counters, open_bodies = _run(live())
        slots = counters["smr.slots_decided"] / 3
        assert count / slots > 8  # batches did fill
        propose = counters["sent_bytes.Slotted.Propose"] / counters["sent.Slotted.Propose"]
        decide = counters["sent_bytes.Slotted.Decide"] / counters["sent.Slotted.Decide"]
        vote = counters["sent_bytes.Slotted.TwoB"] / counters["sent.Slotted.TwoB"]
        assert decide < 100 and vote < 100
        assert propose > 4 * decide
        assert counters.get("smr.body_misses", 0) == 0
        assert counters.get("sent.Slotted.BodyRequest", 0) == 0
        assert counters.get("consensus.decisions_slow", 0) == 0
        # Six messages per slot, as before.
        sent = sum(v for name, v in counters.items() if name.startswith("sent.Slotted."))
        assert sent == 6 * slots
        assert all(held <= 1 for held in open_bodies)

    def test_wal_holds_bodies_and_a_restarted_follower_rejoins(self, tmp_path):
        count = 120

        async def live():
            codec = make_codec("binary")
            async with LocalCluster(
                3,
                _factory(batch_size=16),
                serve_clients=True,
                codec=codec,
                data_dir=str(tmp_path),
                fsync=False,
            ) as cluster:
                client = KVClient(
                    cluster.addresses, client_id="wal", codec=codec, proxy=0
                )
                try:
                    await client.run_pipelined(_puts("a", count), window=64, proxy=0)
                    await cluster.kill(1)
                    await client.run_pipelined(_puts("b", count), window=64, proxy=0)
                    await cluster.restart(1)
                    await client.run_pipelined(_puts("c", count), window=64, proxy=0)
                    await cluster.wait_logs_converged(
                        timeout=30.0, expected_commands=3 * count
                    )
                finally:
                    await client.close()
                assert check_logs_consistent(cluster.survivor_replicas()) == []
            return codec

        codec = _run(live())
        # Votes and decisions arrive as references on the wire; the WAL
        # may only hold a reference behind the body, per slot and segment.
        full = refs = 0
        for pid in range(3):
            for segment in list_segments(tmp_path / f"node-{pid}"):
                held = set()
                for payload in scan_segment(segment).payloads:
                    record = decode_record(codec, payload)
                    if isinstance(record, WalDecision):
                        values = [record.value]
                    elif isinstance(record, WalSlotState):
                        values = [record.value, record.initial_value]
                    for value in values:
                        if type(value) is CommandBatch:
                            held.add((record.slot, value.ref))
                            full += 1
                        elif type(value) is BatchRef:
                            assert (record.slot, value) in held
                            refs += 1
        assert full and refs


class TestReplyPath:
    def test_retry_and_failover_duplicate_are_answered_at_submit(self):
        async def live():
            async with LocalCluster(
                3, _factory(batch_size=4), serve_clients=True
            ) as cluster:
                first = KVClient(cluster.addresses, client_id="one", proxy=0)
                other = KVClient(cluster.addresses, client_id="two", proxy=1)
                try:
                    command = KVCommand(op="put", key="k", value=1, command_id="once")
                    reply = await first.submit(command, proxy=0)
                    assert reply.result == 1 and not reply.duplicate
                    await cluster.wait_logs_converged(timeout=20.0, expected_commands=1)
                    proxy = cluster.nodes[0].process
                    submissions = dict(proxy.submissions)

                    # The same command again at the proxy that answered it:
                    # the recorded result, no new submission.
                    again = await first.submit(command, proxy=0)
                    assert again.result == 1 and not again.duplicate
                    assert proxy.submissions == submissions

                    # ... and at a proxy that only learned it: durable, but
                    # the result was observed elsewhere.
                    elsewhere = await other.submit(command, proxy=1)
                    assert elsewhere.duplicate and elsewhere.result is None
                    assert "once" not in cluster.nodes[1].process.submissions

                    for node in cluster.nodes:
                        assert node.client_service._pending == {}
                        assert node.process.finished == []
                    assert [c.command_id for c in proxy.store.log] == ["once"]
                finally:
                    await first.close()
                    await other.close()

        _run(live())
