"""Crash-recovery acceptance: kill -9 → restart → rejoin → converge.

The end-to-end exercise the durability subsystem exists for. A 5-node
durable ``LocalCluster`` serves a pipelined load; the highest pid is
SIGKILL-crashed (``kill``: buffered WAL records dropped, nothing flushed)
mid-run, the survivors absorb more load, then the node restarts from its
data directory: it must rebuild its pre-crash state from snapshot + WAL,
fetch what it missed from a peer via snapshot state transfer (the
survivors' retained outbound backlog is shed first, modeling a bounded
retransmit buffer over a long outage — transfer must carry the node, not
backlog replay), rebind its original port, and converge to the identical
applied log and store as the survivors.

The CI matrix runs this module once per wire codec: ``REPRO_SMOKE_CODEC``
(``json`` default, or ``binary``) selects the clusters' codec, so the
binary leg recovers a binary WAL, archive and image.
"""

import asyncio
import os
from collections import deque

from repro.net.cluster import LocalCluster
from repro.net.codec import MessageCodec, make_codec
from repro.net.loadgen import run_loadgen
from repro.net.node import NodeServer
from repro.net.wire import NodeHello
from repro.net.stats import describe_cluster_stats, scrape_cluster
from repro.omega import static_omega_factory
from repro.protocols.twostep import TwoStepConfig
from repro.smr.client import put_get_workload
from repro.smr.log import smr_factory
from repro.storage import NodeStorage
from repro.storage.snapshot import ARCHIVE_NAME
from repro.storage.wal import list_segments, scan_records

HARD_TIMEOUT = 120.0
N = 5
TOTAL = 400
PART1, PART2 = 200, 320  # ops[:PART1] | ops[PART1:PART2] | ops[PART2:]


def _smoke_codec() -> MessageCodec:
    """The cluster-wide codec for this run, from the CI matrix env var."""
    return make_codec(os.environ.get("REPRO_SMOKE_CODEC", "json"))


def _factory(delta: float = 0.05, batch: int = 16):
    return smr_factory(
        1,
        1,
        delta=delta,
        omega_factory=static_omega_factory(0),
        consensus_config=TwoStepConfig(f=1, e=1, delta=delta, is_object=True),
        batch_size=batch,
        window=4,
    )


async def _load(cluster, ops, expected):
    report = await run_loadgen(
        cluster.addresses,
        clients=2,
        ops=ops,
        pipeline=32,
        codec=cluster.codec,
        timeout=10.0,
    )
    assert report.failed == 0, report.errors
    await cluster.wait_logs_converged(timeout=30.0, expected_commands=expected)
    return report


async def _kill_restart_rejoin(data_dir):
    ops = put_get_workload(
        TOTAL, keys=("alpha", "beta", "gamma"), proxies=list(range(N)), seed=7
    )
    cluster = LocalCluster(
        N,
        _factory(),
        serve_clients=True,
        codec=_smoke_codec(),
        data_dir=str(data_dir),
        snapshot_every=32,
        outbox_limit=2000,
    )
    async with cluster:
        address_before = cluster.addresses[N - 1]
        await _load(cluster, ops[:PART1], PART1)

        await cluster.kill(N - 1)
        await _load(cluster, ops[PART1:PART2], PART2)
        assert len(cluster.survivors) == N - 1

        # Model a long outage: the survivors' bounded retransmit buffers
        # shed the backlog queued for the dead node, so consensus-message
        # replay cannot carry it past the gap — only state transfer can.
        for node in cluster.survivors:
            node._outbox[N - 1].clear()

        restarted = await cluster.restart(N - 1)
        # Port pinning: the node came back at its pre-crash address.
        assert cluster.addresses[N - 1] == address_before

        await _load(cluster, ops[PART2:], TOTAL)
        shared = await cluster.wait_logs_converged(
            timeout=60.0, expected_commands=TOTAL
        )
        assert len(cluster.survivors) == N

        # wait_logs_converged already proved identical applied command
        # sequences (the decided maps themselves are snapshot-truncated
        # on durable clusters, so the simulator-style full-prefix checker
        # does not apply); the stores must agree too.
        replicas = cluster.survivor_replicas()
        stores = [replica.store.snapshot() for replica in replicas]
        assert all(store == stores[0] for store in stores)

        counters = restarted.obs.registry.snapshot()["counters"]
        # Local recovery rebuilt the pre-crash prefix from snapshot + WAL…
        assert (
            counters.get("storage.snapshot_loaded", 0)
            + counters.get("storage.replayed_entries", 0)
        ) > 0
        # …and state transfer (not full-history replay) covered the rest:
        # strictly more than nothing, strictly less than the whole log.
        assert counters.get("storage.snapshot_transfers", 0) >= 1
        transferred = counters.get("storage.transferred_entries", 0)
        assert 0 < transferred < len(restarted.process.store.log)

        view = await scrape_cluster(cluster.addresses, codec=cluster.codec)
        assert view["unreachable"] == []
        assert "storage:" in describe_cluster_stats(view)
        assert len(shared) >= TOTAL


def test_kill_restart_rejoin_converges(tmp_path):
    asyncio.run(asyncio.wait_for(_kill_restart_rejoin(tmp_path), HARD_TIMEOUT))


async def _full_cluster_reboot(data_dir):
    """Every node stops; a fresh cluster over the same data dir resumes."""
    count = 120
    boot = LocalCluster(
        3,
        _factory(),
        serve_clients=True,
        codec=_smoke_codec(),
        data_dir=str(data_dir),
        snapshot_every=16,
    )
    async with boot:
        report = await run_loadgen(
            boot.addresses,
            clients=2,
            count=count,
            pipeline=32,
            codec=boot.codec,
        )
        assert report.failed == 0
        await boot.wait_logs_converged(timeout=30.0, expected_commands=count)
        expected_log = [c.command_id for c in boot.nodes[0].process.store.log]

    # What recovery is about to read is written in the matrix leg's codec.
    node_dir = NodeStorage(data_dir, 0).dir
    framed = node_dir.joinpath(ARCHIVE_NAME).read_bytes()
    for segment in list_segments(node_dir):
        framed += segment.read_bytes()
    payloads = scan_records(framed).payloads
    assert payloads
    assert {payload[0] for payload in payloads} == {boot.codec.wire_version}

    reboot = LocalCluster(
        3,
        _factory(),
        serve_clients=True,
        codec=_smoke_codec(),
        data_dir=str(data_dir),
        snapshot_every=16,
    )
    async with reboot:
        # No load at all: the applied logs must come back from disk.
        shared = await reboot.wait_logs_converged(timeout=30.0)
        assert shared == expected_log
        for node in reboot.nodes:
            counters = node.obs.registry.snapshot()["counters"]
            assert (
                counters.get("storage.snapshot_loaded", 0)
                + counters.get("storage.replayed_entries", 0)
            ) > 0


def test_full_cluster_reboot_restores_logs(tmp_path):
    asyncio.run(asyncio.wait_for(_full_cluster_reboot(tmp_path), HARD_TIMEOUT))


async def _rebalance_dest_leader_crash(data_dir):
    """kill -9 the destination's leader mid-migration; the move survives.

    A durable 2-group sharded deployment takes load, then a range move
    starts and the destination group's Ω-leader is hard-killed right
    after extraction — before the install commits. The install must
    still commit through the group's two surviving replicas (the
    protocol tolerates f = 1 regardless of which node dies), the killed
    leader must rebuild the install from its WAL plus state transfer on
    restart, and a coordinator that re-runs the whole move after the
    fact (the crashed-coordinator recovery rule) must find every step
    suppressed as a duplicate. The tentpole obligation throughout: the
    range lands wholly in exactly one group, both groups' WAL-backed
    logs converge internally, and every data command applied exactly
    once across the deployment.
    """
    from repro.shard import ShardRouter, ShardedCluster
    from repro.shard.rebalance import move_range
    from repro.smr.kvstore import KVCommand, key_slot

    slots = 16
    cluster = ShardedCluster(
        2,
        3,
        _factory(),
        codec=_smoke_codec(),
        slots=slots,
        data_dir=str(data_dir),
        snapshot_every=32,
    )
    async with cluster:
        boot_map = cluster.placement
        router = ShardRouter(
            cluster.addresses_by_group,
            cluster.placement,
            codec=cluster.codec,
            client_id="crash-move",
        )
        try:
            commands = [
                KVCommand(op="put", key=f"key-{i}", value=i, command_id=f"c{i}")
                for i in range(40)
            ]
            await router.run_pipelined(commands, window=8)

            async def kill_dest_leader(stage: str) -> None:
                if stage == "extracted":
                    await cluster.kill(1, 0)

            report = await cluster.move_range(
                0, 8, dest=1, on_stage=kill_dest_leader
            )
            assert (report.source, report.dest, report.epoch) == (0, 1, 1)
            assert len(cluster.survivor_replicas(1)) == 2

            # The killed leader rebuilds the install it never saw from
            # its own WAL prefix + state transfer from its group.
            await cluster.restart(1, 0)

            # Crashed-coordinator rule: re-running the complete move is
            # pure duplicate suppression — same report, no double apply.
            rerun, _ = await move_range(
                cluster.addresses_by_group, boot_map, 0, 8, 1,
                codec=cluster.codec, client_id="crash-move-rerun",
            )
            # Same move identity; the re-extract reads the already-
            # released (empty) range, and every replicated step lands as
            # a duplicate — verified by the exactly-once checks below.
            assert (rerun.source, rerun.dest, rerun.epoch) == (0, 1, 1)

            await cluster.wait_groups_converged(timeout=60.0)

            # The range lives wholly in exactly one group: the map says
            # dest, the destination's stores hold the keys, the source's
            # stores do not (released), and no command applied twice.
            assert all(
                cluster.placement.group_for_slot(slot) == 1 for slot in range(8)
            )
            moved = [
                c for c in commands if key_slot(c.key, slots) < 8
            ]
            assert moved, "workload never touched the moved range"
            for replica in cluster.survivor_replicas(1):
                for command in moved:
                    assert command.key in replica.store.data
            for replica in cluster.survivor_replicas(0):
                for command in moved:
                    assert command.key not in replica.store.data
            logs = cluster.group_logs()
            all_ids = [cid for log in logs.values() for cid in log]
            assert len(all_ids) == len(set(all_ids))
            assert set(all_ids) == {c.command_id for c in commands}

            # Post-move traffic for a moved key routes (via the fence's
            # redirect) to the destination and sees the moved value.
            probe = moved[0]
            reply = await router.submit(
                KVCommand(op="get", key=probe.key, command_id="probe")
            )
            assert reply.result == probe.value

            # The restarted leader provably came back through recovery.
            counters = cluster.node(1, 0).obs.registry.snapshot()["counters"]
            assert (
                counters.get("storage.snapshot_loaded", 0)
                + counters.get("storage.replayed_entries", 0)
            ) > 0
        finally:
            await router.close()


def test_rebalance_survives_dest_leader_kill(tmp_path):
    asyncio.run(
        asyncio.wait_for(_rebalance_dest_leader_crash(tmp_path), HARD_TIMEOUT)
    )


def test_outbox_limit_sheds_oldest_frames():
    """The bounded retransmit buffer drops from the head and counts it."""
    node = NodeServer(0, 3, _factory(), outbox_limit=2)
    node._outbox[1] = deque()
    node._outbox_wake[1] = asyncio.Event()
    messages = [NodeHello(pid=index) for index in range(5)]
    for index in range(5):
        node._enqueue(1, bytes([index]), messages[index])
    assert list(node._outbox[1]) == [
        (b"\x03", messages[3]),
        (b"\x04", messages[4]),
    ]
    counters = node.obs.registry.snapshot()["counters"]
    assert counters["net.outbox_dropped.p1"] == 3
