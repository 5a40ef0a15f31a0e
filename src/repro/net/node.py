"""The live node runtime: one :class:`Process` served over asyncio TCP.

A :class:`NodeServer` hosts exactly one unmodified
:class:`repro.core.process.Process` state machine — the same object the
discrete-event simulator runs — and adapts its :class:`Context` onto real
transports:

* ``send``/``broadcast`` encode the message **once** and enqueue the
  ready-made frame onto per-peer outbound queues drained by dedicated
  sender tasks that own the ``i → j`` TCP connection, dial lazily, and
  reconnect with exponential backoff. A sender flushes its whole queued
  burst with a single ``drain()`` and pops frames only after the drain
  succeeds, so the burst in flight when a connection drops is re-sent on
  reconnect — links are reliable up to crash-stop (duplicates are possible
  after a reconnect; every protocol here tracks votes in sets, so
  re-delivery is harmless). All sockets set ``TCP_NODELAY``: the protocol
  exchanges many small frames, which Nagle's algorithm would serialize
  into round-trip-sized stalls.
* ``set_timer``/``cancel_timer`` map onto ``loop.call_later`` with the
  exact generation-counter semantics of the simulator (re-arming replaces
  the earlier deadline, cancelling a non-pending timer is a no-op, stale
  callbacks never fire) — pinned by ``tests/sim/test_timer_semantics.py``
  and mirrored in ``tests/net/test_node_timers.py``.
* ``decide`` records the first decision and verifies any repeat carries
  the same value, raising :class:`~repro.core.errors.ProtocolError`
  otherwise, exactly like the schedulers.

Activations stay single-threaded: everything runs on one event loop, and
each handler is a plain synchronous call, so the determinism contract of
:mod:`repro.core.process` needs no locks. (A durable node's file I/O runs
on its storage writer thread, which never touches process state.)

Every link opens with a hello and the acceptor's
:class:`~repro.net.wire.HelloAck`, which any build can decode.
:func:`dial` is the one dial-side handshake — peer senders, clients,
stats scrapes and state transfer all go through it — and the acceptor
refuses a hello from a different registry, and closes a link whose
first frame does not decode at all (an older build's JSON hello).

Client connections (first frame :class:`~repro.net.wire.ClientHello`) are
handed to a pluggable service; :class:`KVService` adapts them onto an
:class:`~repro.smr.log.SMRReplica` by injecting
:class:`~repro.smr.log.SubmitCommand` as the reserved ``CLIENT`` sender
and answering once the replica applied the command.

A node with a data directory holds its output, not its loop: each
activation's peer frames are staged, and while any WAL commit handed to
the storage writer is not yet durable they wait in an ordered hold
tagged with the newest ticket — together with client replies and
transfer chunks. The writer's completion report releases every entry
its ticket covers, in order (see :mod:`repro.storage.recovery`).
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import pathlib
import socket
import time
from collections import deque
from functools import partial
from itertools import islice
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.errors import ConfigurationError, ProtocolError, SchedulerError
from ..core.messages import Message
from ..core.process import CLIENT, Context, Process, ProcessFactory, ProcessId
from ..core.values import MaybeValue
from ..obs import (
    Observability,
    SpanRecorder,
    message_label,
    prometheus_text,
    timeseries_row,
)
from ..smr.kvstore import KVCommand
from ..smr.log import SMRReplica, SubmitCommand
from ..storage.recovery import (
    NodeStorage,
    ReplicaPersister,
    fetch_snapshot,
    transfer_chunks,
)
from ..storage.snapshot import SnapshotError
from .codec import (
    MAX_FRAME_BYTES,
    CodecError,
    FrameDecoder,
    MessageCodec,
    read_frame,
)
from .netlog import node_logger
from .wire import (
    ClientHello,
    ClientReply,
    ClientSubmit,
    HelloAck,
    NodeHello,
    RangeSnapshotRequest,
    SnapshotChunk,
    SnapshotRequest,
    StatsReply,
    StatsRequest,
    Traced,
)

#: (host, port) pairs, indexed by pid.
Address = Tuple[str, int]


def enable_nodelay(writer: asyncio.StreamWriter) -> None:
    """Set ``TCP_NODELAY`` on *writer*'s socket (no-op off-TCP)."""
    sock = writer.get_extra_info("socket")
    if sock is None:
        return
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except (OSError, ValueError):
        pass  # not a TCP socket (unix pipe in tests); nothing to disable


class HandshakeRefused(ConnectionError):
    """The acceptor refused the hello: a different registry.

    A ``ConnectionError``, so every dialer's existing failure path applies:
    peer senders back off and retry, clients fail over.
    """


async def dial(
    address: Address,
    codec: MessageCodec,
    hello: Union[NodeHello, ClientHello],
    timeout: float,
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Connect to *address* and shake hands over the codec's registry.

    *hello* names the dialer (``NodeHello(pid)`` or
    ``ClientHello(client_id)``); this stamps it with the codec's registry
    hash, writes it and waits up to *timeout* for the :class:`HelloAck`.
    Raises :class:`HandshakeRefused` naming
    both registry hashes when the acceptor refused, and ``OSError``,
    ``asyncio.TimeoutError``, ``asyncio.IncompleteReadError`` or
    :class:`CodecError` when it could not be reached or did not answer.
    """
    reader, writer = await asyncio.wait_for(asyncio.open_connection(*address), timeout)
    try:
        enable_nodelay(writer)
        hello = dataclasses.replace(hello, registry_hash=codec.registry_hash)
        writer.write(codec.encode(hello))
        await writer.drain()
        ack = await asyncio.wait_for(read_frame(reader, codec), timeout)
        if not isinstance(ack, HelloAck):
            raise HandshakeRefused(
                f"{address[0]}:{address[1]} answered the hello with "
                f"{type(ack).__name__}, not HelloAck"
            )
        if not ack.accepted or ack.registry_hash != codec.registry_hash:
            raise HandshakeRefused(
                f"{address[0]}:{address[1]} refused the hello: registry "
                f"{codec.registry_hash} here, {ack.registry_hash or '?'} there"
            )
    except BaseException:
        writer.close()
        raise
    return reader, writer


class _NodeContext(Context):
    """Concrete :class:`Context` bound to one activation of a live node."""

    def __init__(self, node: "NodeServer") -> None:
        self._node = node

    @property
    def now(self) -> float:
        return self._node.now

    @property
    def pid(self) -> ProcessId:
        return self._node.pid

    @property
    def n(self) -> int:
        return self._node.n

    @property
    def obs(self) -> Observability:
        return self._node.obs

    def send(self, dst: ProcessId, message: Message) -> None:
        self._node._send(dst, message)

    def broadcast(self, message: Message, include_self: bool = False) -> None:
        self._node._broadcast(message, include_self)

    def set_timer(self, name: str, delay: float) -> None:
        self._node._set_timer(name, delay)

    def cancel_timer(self, name: str) -> None:
        self._node._cancel_timer(name)

    def decide(self, value: MaybeValue) -> None:
        self._node._decide(value)


class ClientService:
    """Hook pair a :class:`NodeServer` calls for client connections.

    ``submit`` handles one :class:`ClientSubmit`; ``poll`` runs after every
    activation and may emit replies via the ``reply`` callables captured at
    submit time.
    """

    def submit(
        self,
        node: "NodeServer",
        request: ClientSubmit,
        reply: Callable[[ClientReply], None],
    ) -> None:
        raise NotImplementedError

    def poll(self, node: "NodeServer") -> None:
        """Called after every activation; default: nothing to flush."""


class KVService(ClientService):
    """Serve the replicated KV store hosted by an :class:`SMRReplica`."""

    def __init__(self) -> None:
        # command_id -> [(request_id, reply callable)]; a list because a
        # client may retry a command under a new request id.
        self._pending: Dict[str, List[Tuple[str, Callable[[ClientReply], None]]]] = {}

    def submit(
        self,
        node: "NodeServer",
        request: ClientSubmit,
        reply: Callable[[ClientReply], None],
    ) -> None:
        replica = node.process
        if not isinstance(replica, SMRReplica):
            raise ConfigurationError(
                f"KVService needs an SMRReplica process, got {type(replica).__name__}"
            )
        command_id = request.command.command_id
        # *reply* holds these two answers, like any other, while the
        # node's latest records are not durable: the result or commit
        # they report may be in flight.
        if command_id in replica.results:
            # A retry of a command this proxy already answered.
            reply(self._result_reply(node, request.request_id, command_id))
            return
        if command_id in replica.commit_times and command_id in replica.store.applied_ids:
            # Committed and applied before this proxy saw the submission
            # (client failover re-submitted a command another proxy
            # already drove to completion). The command is durable but
            # its original result was observed elsewhere — and, being
            # applied without a local submission, never will be here.
            reply(
                ClientReply(
                    request_id=request.request_id,
                    command_id=command_id,
                    result=None,
                    commit_seconds=0.0,
                    duplicate=True,
                )
            )
            return
        self._pending.setdefault(command_id, []).append((request.request_id, reply))
        node._activate(
            lambda ctx: replica.on_message(
                ctx,
                CLIENT,
                SubmitCommand(request.command, trace_id=request.trace_id),
            )
        )

    def poll(self, node: "NodeServer") -> None:
        # O(completed): the replica hands over the ids it just finished.
        replica = node.process
        finished = getattr(replica, "finished", None)
        if not finished:
            return
        for command_id in finished:
            for request_id, reply in self._pending.pop(command_id, ()):
                reply(self._result_reply(node, request_id, command_id))
        finished.clear()

    @staticmethod
    def _result_reply(
        node: "NodeServer", request_id: str, command_id: str
    ) -> ClientReply:
        replica = node.process
        result, applied_at = replica.results[command_id]
        commit = replica.commit_times.get(command_id, 0.0) - replica.submissions.get(
            command_id, 0.0
        )
        trace_id = replica.command_traces.get(command_id, "")
        if trace_id:
            now = node.now
            node.obs.spans.record(trace_id, "reply", now, command=command_id)
            node.obs.registry.observe(
                "stage.reply_seconds", max(0.0, now - applied_at)
            )
        return ClientReply(
            request_id=request_id,
            command_id=command_id,
            result=result,
            commit_seconds=max(commit, 0.0),
            trace_id=trace_id,
        )


class _Held:
    """One hold entry: output that became ready while ticket *tag* (the
    newest handed to the storage writer) was not yet durable."""

    __slots__ = ("tag", "since", "frames", "replies")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.since = time.perf_counter()
        self.frames: List[Tuple[ProcessId, bytes]] = []
        self.replies: List[Tuple[Callable[[Message], None], Message]] = []


#: Bulk-receive size for the serve loops: one ``read()`` per TCP burst,
#: decoded through :class:`FrameDecoder`, instead of two ``readexactly``
#: awaits per frame.
_READ_CHUNK = 256 * 1024


class NodeServer:
    """One live node: a process, its peer links, and its client port.

    Lifecycle: :meth:`bind` (listen, learn the port), then :meth:`launch`
    with the full address book (start peer senders, activate
    ``on_start``), then :meth:`stop` (crash-stop: everything ceases,
    peers' reconnect loops keep backing off harmlessly).
    """

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        factory: ProcessFactory,
        codec: Optional[MessageCodec] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        client_service: Optional[ClientService] = None,
        reconnect_initial: float = 0.05,
        reconnect_max: float = 1.0,
        hello_timeout: float = 1.0,
        obs: Optional[Observability] = None,
        trace_sample: Optional[int] = None,
        data_dir: Optional[str] = None,
        fsync: bool = True,
        snapshot_every: int = 256,
        catch_up: bool = True,
        outbox_limit: Optional[int] = None,
        timeseries_path: Optional[str] = None,
        timeseries_interval: float = 1.0,
        loop_lag_interval: float = 0.25,
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"need at least one process, got n={n}")
        if not 0 <= pid < n:
            raise ConfigurationError(f"pid {pid} out of range for n={n}")
        if outbox_limit is not None and outbox_limit < 1:
            raise ConfigurationError(
                f"outbox_limit must be positive or None, got {outbox_limit}"
            )
        if trace_sample is not None and trace_sample < 0:
            raise ConfigurationError(
                f"trace_sample must be >= 0 or None, got {trace_sample}"
            )
        self.pid = pid
        self.n = n
        self.codec = codec if codec is not None else MessageCodec()
        self.host = host
        self.port = port
        self.client_service = client_service
        self.reconnect_initial = reconnect_initial
        self.reconnect_max = reconnect_max
        self.hello_timeout = hello_timeout
        # Metrics are on by default; the span recorder is opt-in
        # (``trace_sample=N``) or bring-your-own via ``obs``.
        # ``trace_sample=0`` records spans but mints no traces of its own
        # — the follower configuration, which adopts traces arriving from
        # clients and peers.
        self.obs = (
            obs
            if obs is not None
            else Observability(
                spans=(
                    SpanRecorder(sample=trace_sample)
                    if trace_sample is not None
                    else None
                ),
                node=pid,
            )
        )
        self.timeseries_path = timeseries_path
        self.timeseries_interval = timeseries_interval
        self.loop_lag_interval = loop_lag_interval
        self.log = node_logger(pid)
        self.process: Process = factory(pid, n)
        # Span plumbing, resolved once: the replica's slot->trace map (the
        # send path checks it per frame) and whether this node records
        # spans at all (the master off-switch for every tracing branch).
        self._spans_enabled = self.obs.spans.enabled
        self._slot_traces: Optional[Dict[int, str]] = getattr(
            self.process, "slot_traces", None
        )

        # Durability: present only when a data directory was given and the
        # hosted process is an SMR replica (the only stateful process).
        self.data_dir = data_dir
        self._catch_up_enabled = catch_up
        self.outbox_limit = outbox_limit
        self.persister: Optional[ReplicaPersister] = None
        if data_dir is not None and isinstance(self.process, SMRReplica):
            self.persister = ReplicaPersister(
                NodeStorage(data_dir, pid),
                self.process,
                self.codec,
                obs=self.obs,
                fsync=fsync,
                snapshot_every=snapshot_every,
            )
        # Where a sent frame goes: straight to its outbox, or — with a
        # persister — onto this activation's staged frames, which
        # _flush_staged sends or holds until their records are durable.
        self._post: Callable[[ProcessId, bytes], None] = (
            self._enqueue if self.persister is None else self._stage
        )
        self._staged: List[Tuple[ProcessId, bytes]] = []
        self._held: Deque[_Held] = deque()
        self._held_frames = 0

        self.decisions: List[Tuple[float, MaybeValue]] = []
        self.errors: List[BaseException] = []
        self._decided = asyncio.Event()
        self._crashed = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._addresses: List[Address] = []
        self._t0 = 0.0
        self._timer_generation: Dict[str, int] = {}
        self._timer_handles: Dict[str, asyncio.TimerHandle] = {}
        # Outboxes hold encoded frames: a broadcast encodes once and the
        # same bytes object is queued for every peer.
        self._outbox: Dict[ProcessId, Deque[bytes]] = {}
        self._outbox_wake: Dict[ProcessId, asyncio.Event] = {}
        self._tasks: List[asyncio.Task] = []
        self._writers: Set[asyncio.StreamWriter] = set()
        # Live links, surfaced by wire_info(): peers we hold an outbound
        # link to, and the inbound peer and client connections served.
        self._peers_out: Set[ProcessId] = set()
        self._links_in = {"peer": 0, "client": 0}

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Seconds since :meth:`launch` on the loop's monotonic clock."""
        return asyncio.get_event_loop().time() - self._t0

    @property
    def crashed(self) -> bool:
        return self._crashed

    @property
    def address(self) -> Address:
        return (self.host, self.port)

    async def bind(self) -> Address:
        """Start listening; resolves the port when 0 was requested."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.persister is not None:
            # Record the bound address so a restart (same data dir) can
            # rebind the same port and peers reconnect deterministically.
            self.persister.storage.update_meta(host=self.host, port=self.port)
        return self.address

    async def launch(self, addresses: Sequence[Address]) -> None:
        """Start peer senders and run the process's ``on_start``."""
        if self._server is None:
            raise ConfigurationError("bind() must run before launch()")
        if len(addresses) != self.n:
            raise ConfigurationError(
                f"address book has {len(addresses)} entries for n={self.n}"
            )
        self._addresses = list(addresses)
        loop = asyncio.get_event_loop()
        self._t0 = loop.time()
        if self.persister is not None:
            # Rebuild from snapshot + WAL before the process wakes up, so
            # on_start (and everything after) sees the recovered state.
            result = self.persister.recover()
            if result.recovered_anything:
                self.log.info(
                    "recovered: snapshot upto %d + %d WAL record(s) "
                    "(%d segment(s), %d torn)",
                    result.snapshot.upto if result.snapshot else 0,
                    result.replayed_entries,
                    result.segments_scanned,
                    result.torn_segments,
                )
            self.persister.writer.notify = partial(
                loop.call_soon_threadsafe, self._on_durable
            )
        for peer in range(self.n):
            if peer == self.pid:
                continue
            self._outbox[peer] = deque()
            self._outbox_wake[peer] = asyncio.Event()
            self._tasks.append(loop.create_task(self._peer_sender(peer)))
        self._activate(lambda ctx: self.process.on_start(ctx))
        if self.persister is not None and self._catch_up_enabled and self.n > 1:
            self._tasks.append(loop.create_task(self._catch_up_from_peers()))
        if self.loop_lag_interval > 0:
            self._tasks.append(loop.create_task(self._loop_lag_sampler()))
        if self.timeseries_path is not None:
            self._tasks.append(loop.create_task(self._timeseries_writer()))

    async def stop(self, hard: bool = False) -> None:
        """Crash-stop this node: no further activations, links die.

        ``hard=True`` models SIGKILL for the durability layer: buffered
        (never-committed) WAL records are dropped instead of flushed, so
        tests exercise real recovery from a torn tail, not a graceful
        shutdown that quietly fsyncs everything. Either way held output
        never leaves, and the storage writer is joined before this
        returns: a restarted node never recovers a directory that a
        thread of its predecessor is still writing.
        """
        self._crashed = True
        self._held.clear()
        self._held_frames = 0
        self._staged.clear()
        for handle in self._timer_handles.values():
            handle.cancel()
        self._timer_handles.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        tasks = list(self._tasks)
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        for writer in list(self._writers):
            try:
                if not writer.is_closing():
                    writer.close()
            except Exception as exc:
                self.log.debug("closing inbound connection raised %r", exc)
        self._writers.clear()
        if self.persister is not None:
            self.persister.close(hard=hard)
        self.log.info("stopped (crash-stop%s)", ", hard" if hard else "")

    # ------------------------------------------------------------------
    # Activations (all synchronous, all on the event loop thread).
    # ------------------------------------------------------------------

    def _activate(self, handler: Callable[[Context], None]) -> None:
        if self._crashed:
            return
        ctx = _NodeContext(self)
        try:
            handler(ctx)
        except Exception as exc:
            self.errors.append(exc)
            self.log.exception("activation raised %r", exc)
            raise
        finally:
            # Persist before anything leaves: the commit is handed to the
            # storage writer, and this activation's frames — and, through
            # the hold-aware reply callables, its replies — wait in the
            # hold until the writer reports it durable.
            if self.persister is not None and not self._crashed:
                self.persister.after_activation()
                self._flush_staged()
            if self.client_service is not None and not self._crashed:
                self.client_service.poll(self)

    def _deliver(self, sender: ProcessId, message: Message) -> None:
        self._activate(lambda ctx: self.process.on_message(ctx, sender, message))

    # ------------------------------------------------------------------
    # Context callbacks (mirroring Simulation's semantics).
    # ------------------------------------------------------------------

    def _send(self, dst: ProcessId, message: Message) -> None:
        if not 0 <= dst < self.n:
            raise SchedulerError(f"send to unknown process {dst}")
        label = message_label(message)
        self.obs.registry.inc(f"sent.{label}")
        if dst == self.pid:
            # Self-delivery stays asynchronous (never reentrant), matching
            # the simulator where a self-send goes through the event queue.
            asyncio.get_event_loop().call_soon(self._deliver_self, message)
            return
        outbound = message
        if self._spans_enabled:
            outbound = self._maybe_wrap(message, "send", dst=dst)
        frame = self.codec.encode(outbound)
        self.obs.registry.inc(f"sent_bytes.{label}", len(frame))
        self._post(dst, frame)

    def _broadcast(self, message: Message, include_self: bool) -> None:
        """Encode once, enqueue the same frame for every peer.

        When spans are on, a traced slot's frame is wrapped in
        :class:`Traced` (and encoded) once for all peers; a span-less
        peer unwraps and drops the envelope on receipt. Self-delivery
        always gets the bare message — no wire, no envelope.
        """
        label = message_label(message)
        outbound = message
        if self._spans_enabled:
            outbound = self._maybe_wrap(message, "bcast")
        frame = self.codec.encode(outbound)
        peers = self.n - 1
        self.obs.registry.inc(f"sent.{label}", peers + (1 if include_self else 0))
        self.obs.registry.inc(f"sent_bytes.{label}", len(frame) * peers)
        post = self._post
        for dst in range(self.n):
            if dst == self.pid:
                continue
            post(dst, frame)
        if include_self:
            asyncio.get_event_loop().call_soon(self._deliver_self, message)

    def _maybe_wrap(self, message: Message, stage: str, **fields: Any) -> Message:
        """Wrap *message* in :class:`Traced` when its slot is sampled."""
        slot_traces = self._slot_traces
        if slot_traces is None:
            return message
        slot = getattr(message, "slot", None)
        if slot is None:
            return message
        trace_id = slot_traces.get(slot)
        if trace_id is None:
            return message
        seq = self.obs.spans.record(
            trace_id, stage, self.now, type=message_label(message), **fields
        )
        return Traced(trace_id, self.pid, seq, message)

    def _enqueue(self, dst: ProcessId, frame: bytes) -> None:
        queue = self._outbox[dst]
        queue.append(frame)
        if self.outbox_limit is not None and len(queue) > self.outbox_limit:
            # Bounded retransmit buffer: against a long-dead peer the
            # oldest frames are shed, degrading that link from reliable
            # to fair-lossy. Correctness is preserved by gap repair and
            # snapshot state transfer — which is exactly what a restarted
            # node uses to catch up instead of the shed backlog.
            dropped = len(queue) - self.outbox_limit
            for _ in range(dropped):
                queue.popleft()
            self.obs.registry.inc(f"net.outbox_dropped.p{dst}", dropped)
        # High-water mark of this peer's outbound queue: sustained growth
        # means the link (or the peer) is slower than the offered load.
        self.obs.registry.gauge_max(f"net.outbox_hwm.p{dst}", len(queue))
        self._outbox_wake[dst].set()

    # ------------------------------------------------------------------
    # The hold: output waits for its records, the loop does not.
    # ------------------------------------------------------------------

    def _stage(self, dst: ProcessId, frame: bytes) -> None:
        self._staged.append((dst, frame))

    def _flush_staged(self) -> None:
        """End of an activation: its frames go out, or into the hold if
        any record handed to the writer is not durable yet."""
        must_hold = self._must_hold()  # even without frames: it releases
        staged = self._staged
        if not staged:
            return
        if must_hold:
            self._hold_entry(self.persister.writer.issued).frames.extend(staged)
            self._held_frames += len(staged)
            self.obs.registry.gauge_max("storage.held_frames_hwm", self._held_frames)
            self._staged = []
            return
        for dst, frame in staged:
            self._enqueue(dst, frame)
        staged.clear()

    def _reply_when_durable(self, put: Callable[[Message], None], message: Message) -> None:
        """A client-link answer: sent now, or held behind the newest ticket.

        Every answer read from replica state (results, duplicate and
        retry answers, transfer chunks) may rest on records still in
        flight, so it waits like a frame would.
        """
        if self._must_hold():
            self._hold_entry(self.persister.writer.issued).replies.append((put, message))
        else:
            put(message)

    def _must_hold(self) -> bool:
        """Whether output must wait: a handed-off record is not durable.

        Collects first when the writer finished jobs whose report is
        still queued on the loop, so nothing waits on a stale view.
        """
        writer = self.persister.writer
        if writer.uncollected:
            self._on_durable()
        return writer.durable < writer.issued

    def _hold_entry(self, tag: int) -> _Held:
        held = self._held
        if held and held[-1].tag == tag:
            return held[-1]
        entry = _Held(tag)
        held.append(entry)
        return entry

    def _on_durable(self) -> None:
        """The writer finished jobs: release, in order, every held entry
        whose ticket is now durable (runs on the loop)."""
        if self._crashed:
            return
        writer = self.persister.writer
        durable = writer.collect()
        held = self._held
        if held and held[0].tag <= durable:
            now = time.perf_counter()
            observe = self.obs.registry.observe
            while held and held[0].tag <= durable:
                entry = held.popleft()
                for dst, frame in entry.frames:
                    self._enqueue(dst, frame)
                for put, message in entry.replies:
                    put(message)
                self._held_frames -= len(entry.frames)
                observe("storage.durable_wait_seconds", now - entry.since)
        failure = writer.failure
        if failure is not None and failure not in self.errors:
            # Fail-stop: nothing handed off later can turn durable, so
            # everything held stays held.
            self.errors.append(failure)
            self.log.error("storage writer failed, output held: %r", failure)

    def _deliver_self(self, message: Message) -> None:
        if not self._crashed:
            # Counted as a receive (no bytes: nothing hit the wire) so the
            # recv.* totals line up with the simulator, where self-sends
            # travel through the event queue like any delivery.
            self.obs.registry.inc(f"recv.{message_label(message)}")
            self._deliver(self.pid, message)

    def _set_timer(self, name: str, delay: float) -> None:
        if delay < 0:
            raise SchedulerError(f"timer delay must be non-negative, got {delay}")
        self.obs.registry.inc("timer.set")
        generation = self._timer_generation.get(name, 0) + 1
        self._timer_generation[name] = generation
        stale = self._timer_handles.pop(name, None)
        if stale is not None:
            stale.cancel()
        self._timer_handles[name] = asyncio.get_event_loop().call_later(
            delay, self._fire_timer, name, generation
        )

    def _cancel_timer(self, name: str) -> None:
        self.obs.registry.inc("timer.cancel")
        if name in self._timer_generation:
            self._timer_generation[name] += 1
            handle = self._timer_handles.pop(name, None)
            if handle is not None:
                handle.cancel()

    def _fire_timer(self, name: str, generation: int) -> None:
        if self._crashed:
            return
        if self._timer_generation.get(name, 0) != generation:
            return  # stale: re-armed or cancelled since scheduling
        self._timer_handles.pop(name, None)
        self.obs.registry.inc("timer.fired")
        self._activate(lambda ctx: self.process.on_timer(ctx, name))

    def _decide(self, value: MaybeValue) -> None:
        if self.decisions and self.decisions[0][1] != value:
            raise ProtocolError(
                f"node {self.pid} decided {value!r} after {self.decisions[0][1]!r}"
            )
        self.decisions.append((self.now, value))
        self._decided.set()

    @property
    def decision(self) -> Optional[MaybeValue]:
        return self.decisions[0][1] if self.decisions else None

    async def wait_decided(self, timeout: Optional[float] = None) -> MaybeValue:
        await asyncio.wait_for(self._decided.wait(), timeout)
        return self.decisions[0][1]

    # ------------------------------------------------------------------
    # Peer links: one directed connection per ordered pair, sender-owned.
    # ------------------------------------------------------------------

    async def _peer_sender(self, peer: ProcessId) -> None:
        queue = self._outbox[peer]
        wake = self._outbox_wake[peer]
        backoff = self.reconnect_initial
        registry = self.obs.registry
        while not self._crashed:
            try:
                _reader, writer = await dial(
                    self._addresses[peer],
                    self.codec,
                    NodeHello(self.pid),
                    self.hello_timeout,
                )
            except (
                OSError,
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
                CodecError,
            ) as exc:
                if isinstance(exc, HandshakeRefused):
                    self.log.error("link to peer %d refused: %s", peer, exc)
                else:
                    self.log.debug(
                        "peer %d unreachable (%s); retry in %.2fs",
                        peer,
                        type(exc).__name__,
                        backoff,
                    )
                registry.inc(f"net.reconnects.p{peer}")
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, self.reconnect_max)
                continue
            if self._crashed:
                # stop() may have cancelled us mid-handshake; on 3.11
                # wait_for swallows that cancellation when the ack lands
                # in the same tick, so re-check and bail rather than
                # re-entering the send loop with the cancel lost.
                writer.close()
                return
            backoff = self.reconnect_initial
            self._peers_out.add(peer)
            try:
                while True:
                    while not queue:
                        wake.clear()
                        await wake.wait()
                    # Flush the whole queued burst with one drain(); pop
                    # only after it succeeds, so everything written when a
                    # connection dies is re-sent on reconnect. Frames
                    # queued during the await are left for the next burst.
                    burst = len(queue)
                    writer.write(b"".join(islice(queue, burst)))
                    started = time.perf_counter()
                    await writer.drain()
                    stall = time.perf_counter() - started
                    # Coalescing stall profile: how long bursts sit in
                    # drain() (kernel buffer full = a slow peer or link).
                    registry.observe("net.drain_seconds", stall)
                    registry.gauge_max("net.drain_stall_max_seconds", stall)
                    for _ in range(burst):
                        queue.popleft()
            except (ConnectionError, OSError) as exc:
                self.log.info(
                    "link to peer %d dropped (%s); %d frame(s) pending re-send",
                    peer,
                    type(exc).__name__,
                    len(queue),
                )
            finally:
                self._peers_out.discard(peer)
                try:
                    writer.close()
                except Exception as exc:
                    self.log.debug(
                        "closing link to peer %d raised %r", peer, exc
                    )

    async def _ack_hello(
        self, hello: Union[NodeHello, ClientHello], writer: asyncio.StreamWriter
    ) -> bool:
        """Answer an inbound hello; ``False`` when it was refused.

        The :class:`HelloAck` always carries this node's registry hash, so
        a refused dialer can name both ends. A dialer whose registry
        differs would misread every id-keyed frame: it is refused, counted
        and logged, and the caller closes the link before reading anything
        else from it.
        """
        ours = self.codec.registry_hash
        accepted = hello.registry_hash == ours
        writer.write(self.codec.encode(HelloAck(accepted, ours)))
        await writer.drain()
        if not accepted:
            self.obs.registry.inc("net.hello_rejected")
            self.log.error("refused %r: this node's registry is %s", hello, ours)
        return accepted

    # ------------------------------------------------------------------
    # Inbound connections: peers deliver, clients converse.
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        enable_nodelay(writer)
        try:
            # Sniff the first 4 bytes: an HTTP method prefix can never be
            # a legal frame length (b"GET " as a big-endian length is
            # ~1.2 GB, far above MAX_FRAME_BYTES), so the one listening
            # port serves both the wire protocol and GET /metrics.
            try:
                header = await reader.readexactly(4)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if header in (b"GET ", b"HEAD"):
                await self._serve_http(header, reader, writer)
                return
            payload_len = int.from_bytes(header, "big")
            if payload_len > MAX_FRAME_BYTES:
                return  # corrupt length prefix (or some other protocol)
            try:
                body = await reader.readexactly(payload_len)
                hello = self.codec.decode_payload(body)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except CodecError as exc:
                if body[:1] == b"\x01":  # an older build's v1 hello: refuse it, unread
                    self.obs.registry.inc("net.hello_rejected")
                    self.log.error("refused a v1 hello (%s)", exc)
                return
            # Anything but a hello: close silently (port scanners).
            if not isinstance(hello, (NodeHello, ClientHello)):
                return
            if not await self._ack_hello(hello, writer):
                return
            kind = "peer" if isinstance(hello, NodeHello) else "client"
            self._links_in[kind] += 1
            try:
                if isinstance(hello, NodeHello):
                    await self._serve_peer(reader, hello.pid)
                else:
                    await self._serve_client(reader, writer)
            finally:
                self._links_in[kind] -= 1
        finally:
            self._writers.discard(writer)
            try:
                if not writer.is_closing():
                    writer.close()
            except Exception:
                pass

    async def _serve_peer(self, reader: asyncio.StreamReader, sender: ProcessId) -> None:
        # Bulk receive: one read() per TCP burst, however many frames it
        # carries, instead of two readexactly() awaits per frame. Under a
        # pipelined load a burst is dozens of frames, so this collapses
        # the per-message event-loop round-trips that dominate the path.
        decoder = FrameDecoder(self.codec)
        inc = self.obs.registry.inc
        while not self._crashed:
            try:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    raise asyncio.IncompleteReadError(b"", None)
                batch = decoder.feed_sized(data)
            except (asyncio.IncompleteReadError, ConnectionError, CodecError) as exc:
                self.log.debug(
                    "inbound link from peer %d closed (%s)",
                    sender,
                    type(exc).__name__,
                )
                return  # peer went away; its sender task reconnects
            for message, size in batch:
                if type(message) is Traced:
                    message = self._unwrap_traced(message, sender)
                label = message_label(message)
                inc(f"recv.{label}")
                inc(f"recv_bytes.{label}", size)
                self._deliver(sender, message)

    def _unwrap_traced(self, envelope: Traced, sender: ProcessId) -> Message:
        """Record the recv span, adopt the slot's trace, return the inner.

        Adopting (``setdefault``) means this node's own responses for the
        slot — TwoB back to the coordinator, Decide re-broadcasts — carry
        the same trace onward, so the merger sees the full causal fan-out
        rather than only the origin's sends.
        """
        inner = envelope.inner
        spans = self.obs.spans
        if spans.enabled:
            slot = getattr(inner, "slot", None)
            spans.record(
                envelope.trace_id,
                "recv",
                self.now,
                type=message_label(inner),
                src=sender,
                origin=envelope.origin,
                parent=envelope.parent,
                slot=slot,
            )
            if slot is not None and self._slot_traces is not None:
                self._slot_traces.setdefault(slot, envelope.trace_id)
        return inner

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Served even with no client service attached: stats are a
        # property of the runtime, not of the KV layer, so a consensus-only
        # node still answers ``StatsRequest``.
        replies: "asyncio.Queue[Message]" = asyncio.Queue()
        put = replies.put_nowait
        # Stats describe the runtime and never wait; every other answer
        # waits in the hold while records are in flight.
        reply = put if self.persister is None else partial(self._reply_when_durable, put)
        loop = asyncio.get_event_loop()
        flusher = loop.create_task(self._flush_replies(replies, writer))
        self._tasks.append(flusher)
        decoder = FrameDecoder(self.codec)
        try:
            while not self._crashed:
                try:
                    data = await reader.read(_READ_CHUNK)
                    if not data:
                        return
                    batch = decoder.feed_sized(data)
                except (asyncio.IncompleteReadError, ConnectionError, CodecError):
                    return
                for request, _size in batch:
                    if isinstance(request, StatsRequest):
                        put(self._stats_reply(request))
                    elif isinstance(request, (SnapshotRequest, RangeSnapshotRequest)):
                        for chunk in self._transfer_reply(request):
                            reply(chunk)
                    elif (
                        isinstance(request, ClientSubmit)
                        and self.client_service is not None
                    ):
                        command = request.command
                        if not isinstance(command, KVCommand) or not command.command_id:
                            # The trust boundary; returning closes the link.
                            self.obs.registry.inc("net.submit_rejected")
                            self.log.warning("refused submit %r: no command_id", request.request_id)
                            return
                        self.client_service.submit(self, request, reply)
        finally:
            flusher.cancel()
            if flusher in self._tasks:
                self._tasks.remove(flusher)

    async def _flush_replies(
        self, replies: "asyncio.Queue[Message]", writer: asyncio.StreamWriter
    ) -> None:
        encode = self.codec.encode
        while True:
            batch = [await replies.get()]
            # Coalesce every reply already queued into one write + drain;
            # pipelined clients complete many commands per activation.
            while not replies.empty():
                batch.append(replies.get_nowait())
            writer.write(b"".join(encode(reply) for reply in batch))
            await writer.drain()

    async def _serve_http(
        self,
        prefix: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Answer one HTTP/1.0 request on the wire port: ``GET /metrics``.

        Minimal by design — one request, ``Connection: close``, no
        keep-alive — just enough for a Prometheus scraper or ``curl``.
        The exposition is rendered from the live snapshot with a
        ``node`` label, so scraping every node of a cluster and letting
        the server sum counters reproduces ``merge_snapshots``.
        """
        try:
            rest = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 2.0)
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
        ):
            return
        request_line = (prefix + rest).split(b"\r\n", 1)[0].decode(
            "latin-1", "replace"
        )
        parts = request_line.split()
        path = parts[1].split("?")[0] if len(parts) > 1 else "/"
        if path in ("/", "/metrics"):
            status = b"200 OK"
            body = prometheus_text(
                self.obs.snapshot(), labels={"node": str(self.pid)}
            ).encode("utf-8")
        else:
            status = b"404 Not Found"
            body = b"try /metrics\n"
        head = (
            b"HTTP/1.0 " + status + b"\r\n"
            b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
            b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
            b"Connection: close\r\n\r\n"
        )
        writer.write(head if prefix == b"HEAD" else head + body)
        await writer.drain()
        self.obs.registry.inc("net.http_scrapes")

    # ------------------------------------------------------------------
    # Runtime profiling and the time-series feed.
    # ------------------------------------------------------------------

    async def _loop_lag_sampler(self) -> None:
        """Sample event-loop lag: how late a timed sleep actually wakes.

        Lag is the gap between when ``sleep(interval)`` should have
        returned and when it did — the queueing delay every timer and
        every activation on this node experiences. The histogram gives
        the distribution, the gauge the worst stall since launch.
        """
        interval = self.loop_lag_interval
        registry = self.obs.registry
        loop = asyncio.get_event_loop()
        while not self._crashed:
            expected = loop.time() + interval
            await asyncio.sleep(interval)
            lag = max(0.0, loop.time() - expected)
            registry.observe("runtime.loop_lag_seconds", lag)
            registry.gauge_max("runtime.loop_lag_max_seconds", lag)

    async def _timeseries_writer(self) -> None:
        """Append one JSONL snapshot row per interval (live dashboards).

        The write is a single short line through a per-tick append —
        blocking the loop for microseconds at 1 Hz — so no thread pool
        is needed. Rows are cumulative (counters, not deltas); consumers
        diff successive rows for rates, exactly like ``repro top``.
        """
        path = pathlib.Path(self.timeseries_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        registry = self.obs.registry
        while not self._crashed:
            await asyncio.sleep(self.timeseries_interval)
            row = timeseries_row(self.obs.snapshot(), t=self.now, node=self.pid)
            with path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(row) + "\n")
            registry.inc("obs.timeseries_rows")

    def _transfer_reply(
        self, request: Union[SnapshotRequest, RangeSnapshotRequest]
    ) -> List[SnapshotChunk]:
        """Serve a state or range transfer from the *live* replica.

        Rendering happens synchronously on the event loop, so the shipped
        state is a consistent point-in-time view (no activation can
        interleave). A range is only meaningful once it is fenced at this
        group — the fence makes the extracted state final. Non-replica
        processes answer with a terminal ``upto=-1`` chunk so the fetcher
        can move on to the next peer.
        """
        if not isinstance(self.process, SMRReplica):
            return [
                SnapshotChunk(
                    request_id=request.request_id, seq=0, last=True, upto=-1, payload=b""
                )
            ]
        ranged = isinstance(request, RangeSnapshotRequest)
        self.obs.registry.inc(
            "storage.range_snapshots_served" if ranged else "storage.snapshots_served"
        )
        return transfer_chunks(self.codec, self.process, request)

    # ------------------------------------------------------------------
    # Catch-up: pull a peer's state instead of replaying history.
    # ------------------------------------------------------------------

    async def _catch_up_from_peers(
        self, rounds: int = 5, initial_delay: float = 0.25
    ) -> None:
        """Fetch and install a peer's state while behind the cluster.

        Runs once after launch (only on storage-enabled nodes): each
        round sends peers — nearest pid first — our frontier and log
        length, and installs the image plus log suffix a peer that is
        ahead answers with. Stops when no reachable peer is ahead (fresh
        boots converge on the first round, one empty chunk per peer) or
        after *rounds* installs; from there the normal message flow keeps
        the node current. A malformed image or a suffix that does not
        extend our log is counted in ``storage.transfer_rejected`` and
        the next peer is tried.
        """
        assert self.persister is not None
        await asyncio.sleep(initial_delay)
        replica = self.process
        for _ in range(rounds):
            if self._crashed:
                return
            progressed = False
            for step in range(1, self.n):
                peer = (self.pid + step) % self.n
                try:
                    image = await fetch_snapshot(
                        self._addresses[peer],
                        self.codec,
                        client_id=f"catchup-{self.pid}",
                        applied_upto=replica.applied_upto,
                        log_entries=len(replica.store.log),
                        timeout=5.0,
                    )
                except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, CodecError):
                    continue
                except SnapshotError as exc:
                    self._refuse_transfer(peer, exc)
                    continue
                if image is None or self._crashed:
                    continue
                try:
                    installed = self.persister.install_remote(image)
                except SnapshotError as exc:
                    self._refuse_transfer(peer, exc)
                    continue
                if installed > 0:
                    self.log.info(
                        "caught up from peer %d: +%d log entries (frontier %d)",
                        peer,
                        installed,
                        replica.applied_upto,
                    )
                    progressed = True
                    break
            if not progressed:
                return

    def _refuse_transfer(self, peer: int, exc: SnapshotError) -> None:
        """A peer's image was malformed or its suffix not anchored on our log."""
        self.log.warning("refused state from peer %d: %s", peer, exc)
        self.obs.registry.inc("storage.transfer_rejected")

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, Any]:
        """This node's metrics snapshot (JSON-safe, mergeable).

        Identical in shape to :meth:`repro.sim.simulation.Simulation.node_snapshot`,
        which is what lets live and simulated runs be compared directly.
        """
        snapshot = self.obs.snapshot()
        records = getattr(self.process, "decision_records", None)
        if callable(records):
            snapshot["decisions"] = records()
        snapshot["wire"] = self.wire_info()
        return snapshot

    def wire_info(self) -> Dict[str, Any]:
        """This node's registry hash and live link counts (JSON-safe).

        ``peer_links_out`` counts peers this node holds an open link to;
        ``peer_links_in`` and ``client_links`` count the inbound peer and
        client connections it is serving right now.
        """
        return {
            "registry_hash": self.codec.registry_hash,
            "peer_links_out": len(self._peers_out),
            "peer_links_in": self._links_in["peer"],
            "client_links": self._links_in["client"],
        }

    def _stats_reply(self, request: StatsRequest) -> StatsReply:
        spans: Tuple = ()
        if request.include_spans and self.obs.spans.enabled:
            spans = tuple(self.obs.spans.events())
        return StatsReply(
            request_id=request.request_id,
            pid=self.pid,
            snapshot=self.stats_snapshot(),
            spans=spans,
        )


def start_node(
    pid: ProcessId,
    addresses: Sequence[Address],
    factory: ProcessFactory,
    codec: Optional[MessageCodec] = None,
    client_service: Optional[ClientService] = None,
    trace_sample: Optional[int] = None,
    data_dir: Optional[str] = None,
    fsync: bool = True,
    snapshot_every: int = 256,
    timeseries_path: Optional[str] = None,
) -> NodeServer:
    """Build a node for slot *pid* of *addresses* (not yet bound).

    Convenience for the ``python -m repro cluster --node`` deployment
    path; the caller still awaits :meth:`NodeServer.bind` and
    :meth:`NodeServer.launch`. With *data_dir* the node journals to
    ``<data_dir>/node-<pid>/`` and recovers from it on the next start.
    """
    host, port = addresses[pid]
    return NodeServer(
        pid,
        len(addresses),
        factory,
        codec=codec,
        host=host,
        port=port,
        client_service=client_service,
        trace_sample=trace_sample,
        data_dir=data_dir,
        fsync=fsync,
        snapshot_every=snapshot_every,
        timeseries_path=timeseries_path,
    )
