"""The adapter: every import from ``src/`` lives in this file.

It boots the deployment a workload names, opens the clients that drive
it, exposes the few views the checks and per-layer metrics need
(merged ``stats_snapshot()``, applied logs, kill/restart), and lists the
public methods a traced repeat wraps. The rest of the benchmark sees
plain tuples, dicts and callables, so a refactor of the program changes
this file or nothing.
"""

from __future__ import annotations

import asyncio
import importlib
import pathlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.net.client import KVClient  # noqa: E402
from repro.net.cluster import LocalCluster  # noqa: E402
from repro.net.codec import (  # noqa: E402
    WIRE_VERSION_JSON,
    FrameDecoder,
    make_codec,
    read_frame,
)
from repro.net.wire import (  # noqa: E402
    ClientHello,
    ClientReply,
    ClientSubmit,
    HelloAck,
)
from repro.obs import MetricsRegistry, merge_snapshots  # noqa: E402
from repro.omega import static_omega_factory  # noqa: E402
from repro.protocols.twostep import TwoStepConfig  # noqa: E402
from repro.shard import ShardedCluster, ShardRouter  # noqa: E402
from repro.smr.kvstore import KVCommand  # noqa: E402
from repro.smr.log import smr_factory  # noqa: E402

from loadgen import PlainCommand  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CLUSTER, WorkloadSpec  # noqa: E402

_READ_CHUNK = 256 * 1024


def make_commands(plain: Sequence[PlainCommand]) -> List[KVCommand]:
    return [
        KVCommand(op=op, key=key, value=value, command_id=command_id)
        for op, key, value, command_id in plain
    ]


def _plain(command: KVCommand) -> PlainCommand:
    return (command.op, command.key, command.value, command.command_id)


# ----------------------------------------------------------------------
# The deployment.
# ----------------------------------------------------------------------


class Deployment:
    """The live in-process stack for one workload: G groups x n nodes on
    this event loop, real loopback TCP, no injected delay."""

    def __init__(self, spec: WorkloadSpec, data_dir: Optional[str]) -> None:
        self.spec = spec
        self.codec = make_codec(CLUSTER.codec)
        factory = smr_factory(
            CLUSTER.f,
            CLUSTER.e,
            delta=CLUSTER.delta_s,
            omega_factory=static_omega_factory(CLUSTER.proxy),
            consensus_config=TwoStepConfig(
                f=CLUSTER.f, e=CLUSTER.e, delta=CLUSTER.delta_s, is_object=True
            ),
            batch_size=CLUSTER.batch_size,
            window=CLUSTER.window,
        )
        self._sharded: Optional[ShardedCluster] = None
        if spec.groups > 1:
            self._sharded = ShardedCluster(
                spec.groups,
                CLUSTER.n,
                factory,
                codec=self.codec,
                slots=CLUSTER.hash_slots,
            )
            self.clusters: Dict[int, LocalCluster] = self._sharded.clusters
        else:
            self.clusters = {
                0: LocalCluster(
                    CLUSTER.n,
                    factory,
                    serve_clients=True,
                    codec=self.codec,
                    data_dir=data_dir,
                    fsync=True,
                    snapshot_every=CLUSTER.snapshot_every,
                )
            }

    async def start(self) -> None:
        await (self._sharded or self.clusters[0]).start()

    async def stop(self) -> None:
        await (self._sharded or self.clusters[0]).stop()

    # -- clients -------------------------------------------------------

    def closed_loop_drivers(self, outstanding: int) -> List["Driver"]:
        """The clients of a closed-loop workload (also used to warm up).

        One ``KVClient`` per connection pinned to the proxy — or, on a
        sharded deployment, one ``ShardRouter`` holding one connection
        per group.
        """
        if self._sharded is not None:
            router = ShardRouter(
                self._sharded.addresses_by_group,
                self._sharded.placement,
                codec=self.codec,
                client_id="bench",
            )
            return [
                Driver(
                    run=lambda commands, on_reply: router.run_pipelined(
                        commands, window=outstanding, on_reply=on_reply
                    ),
                    close=router.close,
                    redirects=lambda: router.redirect_count,
                )
            ]
        drivers = []
        for index in range(self.spec.connections):
            client = KVClient(
                self.clusters[0].addresses,
                client_id=f"bench-{index}",
                codec=self.codec,
                proxy=CLUSTER.proxy,
            )
            drivers.append(
                Driver(
                    run=lambda commands, on_reply, client=client: client.run_pipelined(
                        commands,
                        window=outstanding,
                        proxy=CLUSTER.proxy,
                        on_reply=on_reply,
                    ),
                    close=client.close,
                )
            )
        return drivers

    def paced_connection(self, index: int) -> "PacedConnection":
        return PacedConnection(
            self.clusters[0].addresses[CLUSTER.proxy], self.codec, f"paced-{index}"
        )

    # -- views ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Every node's ``stats_snapshot()`` merged: counters add, gauges
        keep the maximum, histograms add bucket-wise."""
        return merge_snapshots(
            node.stats_snapshot()
            for cluster in self.clusters.values()
            for node in cluster.survivors
        )

    def applied_logs(self) -> Dict[int, List[List[PlainCommand]]]:
        """group -> one applied command log per replica, in apply order."""
        return {
            group: [
                [_plain(command) for command in replica.store.log]
                for replica in cluster.survivor_replicas()
            ]
            for group, cluster in self.clusters.items()
        }

    async def quiesce(self, timeout: float = 30.0) -> None:
        """Wait until nothing is in flight: every group's replicas hold
        logs of one length, and that length stood still for 2 delta.

        Cancelled clients leave a last batch travelling; a single
        "equal right now" test can fall between the proxy's apply and
        the followers', so the logs must also have stopped growing.
        """

        def lengths() -> List[List[int]]:
            return [
                [len(replica.store.log) for replica in cluster.survivor_replicas()]
                for cluster in self.clusters.values()
            ]

        deadline = time.perf_counter() + timeout
        previous = None
        while True:
            current = lengths()
            settled = all(len(set(group)) == 1 for group in current)
            if settled and current == previous:
                return
            if time.perf_counter() > deadline:
                raise asyncio.TimeoutError(f"logs never settled: lengths {current}")
            previous = current if settled else None
            await asyncio.sleep(2 * CLUSTER.delta_s)

    async def kill_and_recover(self, timeout: float = 30.0) -> float:
        """kill -9 every node (unsynced WAL tail dropped), restart them
        from disk; returns the seconds the restarts took."""
        cluster = self.clusters[0]
        for pid in range(cluster.n):
            await cluster.kill(pid)
        started = time.perf_counter()
        for pid in range(cluster.n):
            await cluster.restart(pid)
        recover_s = time.perf_counter() - started
        await self.quiesce(timeout)
        return recover_s


@dataclass
class Driver:
    """One closed-loop client: ``run(commands, on_reply)`` drives them
    with the workload's window and returns when all are answered;
    ``on_reply(reply, seconds)`` fires per completion."""

    run: Callable[[List[KVCommand], Callable[[Any, float], None]], Any]
    close: Callable[[], Any]
    redirects: Callable[[], int] = lambda: 0


# ----------------------------------------------------------------------
# The paced (open-loop) sender, on repro.net.codec / repro.net.wire.
# ----------------------------------------------------------------------


class PacedConnection:
    """One client link that writes each command when it is due.

    ``KVClient`` only offers closed loops (a window that waits for
    replies), so the open-loop sender speaks the client protocol
    directly: ``ClientHello`` / ``HelloAck``, then ``ClientSubmit`` out
    and ``ClientReply`` back. Latency runs from the instant a command
    was *due*, so a stall is charged to every command it delays.
    """

    def __init__(self, address: Tuple[str, int], codec: Any, client_id: str) -> None:
        self.address = address
        self.codec = codec
        self.client_id = client_id
        self.late_s: List[float] = []
        self._due_at: Dict[str, float] = {}
        self._link_version = WIRE_VERSION_JSON
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._decoder = FrameDecoder(codec)

    async def open(self, hello_timeout: float = 1.0) -> None:
        self._reader, self._writer = await asyncio.open_connection(*self.address)
        self._writer.write(
            self.codec.encode(
                ClientHello(
                    self.client_id,
                    max_wire_version=self.codec.max_wire_version,
                    registry_hash=self.codec.registry_hash,
                ),
                WIRE_VERSION_JSON,
            )
        )
        await self._writer.drain()
        ack = await asyncio.wait_for(read_frame(self._reader, self.codec), hello_timeout)
        if not isinstance(ack, HelloAck):
            raise ConnectionError(f"expected HelloAck, got {type(ack).__name__}")
        self._link_version = ack.wire_version

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def send(self, command: KVCommand, due: float, sequence: int) -> None:
        """Encode and write one submit; records how late the sender ran."""
        frame = self.codec.encode(
            ClientSubmit(f"{self.client_id}:{sequence}", command), self._link_version
        )
        self._due_at[command.command_id] = due
        self._writer.write(frame)
        self.late_s.append(time.perf_counter() - due)

    def receive(self, data: bytes, on_reply: Callable[[Any, float], None]) -> int:
        """Decode one read's worth of replies; returns how many completed."""
        completed = 0
        for message, _size in self._decoder.feed_sized(data):
            if not isinstance(message, ClientReply):
                continue
            due = self._due_at.pop(message.command_id, None)
            if due is None:
                continue
            on_reply(message, time.perf_counter() - due)
            completed += 1
        return completed

    async def run(
        self,
        commands: Sequence[KVCommand],
        due_offsets: Sequence[float],
        start: float,
        on_reply: Callable[[Any, float], None],
        reply_timeout: float = 5.0,
    ) -> None:
        """Send every command at ``start + offset``; return when all are
        answered or no reply arrived for *reply_timeout* seconds."""

        async def sender() -> None:
            for sequence, (command, offset) in enumerate(zip(commands, due_offsets)):
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                self.send(command, due, sequence)

        sending = asyncio.ensure_future(sender())
        try:
            remaining = len(commands)
            while remaining:
                data = await asyncio.wait_for(
                    self._reader.read(_READ_CHUNK), reply_timeout
                )
                if not data:
                    raise ConnectionError("proxy closed the paced connection")
                remaining -= self.receive(data, on_reply)
        finally:
            sending.cancel()
            await asyncio.gather(sending, return_exceptions=True)


# ----------------------------------------------------------------------
# Wrap targets for the traced repeat.
# ----------------------------------------------------------------------


def _tally_feed(counts: Dict[str, float], args: tuple, result: Any) -> None:
    counts["codec.feeds"] += 1
    counts["codec.bytes_fed"] += len(args[1])
    counts["codec.msgs_fed"] += len(result)


def _tally_apply(counts: Dict[str, float], args: tuple, result: Any) -> None:
    if isinstance(result, str) and result == "duplicate":
        counts["kvstore.duplicates"] += 1


@dataclass(frozen=True)
class WrapTarget:
    layer: str
    module: str
    #: Class inside *module*; ``None`` wraps a module-level function.
    owner: Optional[str]
    attribute: str
    #: ``sync`` | ``blocking`` (may sleep in the kernel) | ``async`` |
    #: ``count`` (calls counted, not timed).
    kind: str = "sync"
    tally: Optional[Callable[[Dict[str, float], tuple, Any], None]] = None
    #: ``blocking`` only: which calls' wall durations to keep, by result.
    sample: Optional[Callable[[Any], bool]] = None


WRAP_TARGETS: Tuple[WrapTarget, ...] = (
    WrapTarget("loadgen", "repro.net.client", "KVClient", "run_pipelined", "async"),
    WrapTarget("shard", "repro.shard.router", "ShardRouter", "run_pipelined", "async"),
    WrapTarget("shard", "repro.shard.router", "ShardRouter", "group_for"),
    WrapTarget("codec.encode", "repro.net.codec", "MessageCodec", "encode"),
    WrapTarget("codec.encode", "repro.net.codec", "MessageCodec", "encode_payload"),
    WrapTarget("codec.decode", "repro.net.codec", "MessageCodec", "decode"),
    WrapTarget("codec.decode", "repro.net.codec", "MessageCodec", "decode_payload"),
    WrapTarget(
        "codec.decode", "repro.net.codec", "FrameDecoder", "feed_sized", tally=_tally_feed
    ),
    WrapTarget("node.ctx", "repro.net.node", "_NodeContext", "send"),
    WrapTarget("node.ctx", "repro.net.node", "_NodeContext", "broadcast"),
    WrapTarget("node.ctx", "repro.net.node", "_NodeContext", "set_timer"),
    WrapTarget("node.ctx", "repro.net.node", "_NodeContext", "cancel_timer"),
    WrapTarget("smr", "repro.smr.log", "SMRReplica", "on_message"),
    WrapTarget("smr", "repro.smr.log", "SMRReplica", "on_timer"),
    WrapTarget("smr", "repro.smr.log", "SMRReplica", "submit"),
    WrapTarget("consensus", "repro.protocols.twostep", "TwoStepProcess", "on_message"),
    WrapTarget("consensus", "repro.protocols.twostep", "TwoStepProcess", "on_timer"),
    WrapTarget("consensus", "repro.protocols.twostep", "TwoStepProcess", "propose"),
    WrapTarget("kvstore", "repro.smr.kvstore", "KVStore", "apply", tally=_tally_apply),
    WrapTarget("storage.append", "repro.storage.wal", "WriteAheadLog", "append"),
    WrapTarget(
        "storage.append", "repro.storage.recovery", "ReplicaPersister", "after_activation"
    ),
    # commit() runs after every activation and returns 0 when nothing was
    # buffered; only commits that wrote records are wait-time samples.
    WrapTarget(
        "storage.commit", "repro.storage.wal", "WriteAheadLog", "commit", "blocking",
        sample=bool,
    ),
    WrapTarget("storage.snapshot", "repro.storage.recovery", None, "write_snapshot", "blocking"),
    WrapTarget("obs", "repro.obs.registry", "MetricsRegistry", "inc", "count"),
    WrapTarget("obs", "repro.obs.registry", "MetricsRegistry", "observe", "count"),
    WrapTarget("obs", "repro.obs.registry", "MetricsRegistry", "gauge_max", "count"),
)


def install_wrappers(tracer: Tracer) -> List[str]:
    """Wrap every target that still exists; returns the layers that lost
    one (their metrics are reported as ``null``), warning once each."""
    missing: List[str] = []
    for target in WRAP_TARGETS:
        try:
            owner: Any = importlib.import_module(target.module)
            if target.owner is not None:
                owner = getattr(owner, target.owner)
            original = getattr(owner, target.attribute)
        except (ImportError, AttributeError):
            where = ".".join(filter(None, (target.module, target.owner, target.attribute)))
            print(
                f"warning: wrap target {where} is gone; "
                f"{target.layer}.* per-layer metrics are null",
                file=sys.stderr,
            )
            missing.append(target.layer)
            continue
        name = f"{target.layer}:{target.attribute}"
        if target.kind == "async":
            wrapper = tracer.wrap_async(target.layer, original, name)
        elif target.kind == "blocking":
            wrapper = tracer.wrap_blocking(target.layer, original, name, target.sample)
        elif target.kind == "count":
            wrapper = tracer.count(name, original)
        else:
            wrapper = tracer.wrap(target.layer, original, name, target.tally)
        tracer.install(owner, target.attribute, wrapper)
    return missing


def obs_unit_costs(calls: int = 20000) -> Dict[str, float]:
    """Seconds per ``MetricsRegistry`` call, measured on a scratch
    registry — the unit costs behind ``obs.est_us_per_cmd``. Call it
    before :func:`install_wrappers`."""
    registry = MetricsRegistry()
    costs: Dict[str, float] = {}
    for name, call in (
        ("obs:inc", lambda: registry.inc("sent.Slotted.TwoB")),
        ("obs:observe", lambda: registry.observe("smr.commit_seconds", 0.0123)),
        ("obs:gauge_max", lambda: registry.gauge_max("net.outbox_hwm.p1", 3)),
    ):
        started = time.perf_counter()
        for _ in range(calls):
            call()
        costs[name] = (time.perf_counter() - started) / calls
    return costs
