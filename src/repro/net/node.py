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
:mod:`repro.core.process` needs no locks.

Client connections (first frame :class:`~repro.net.wire.ClientHello`) are
handed to a pluggable service; :class:`KVService` adapts them onto an
:class:`~repro.smr.log.SMRReplica` by injecting
:class:`~repro.smr.log.SubmitCommand` as the reserved ``CLIENT`` sender
and answering once the replica applied the command.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import socket
import time
from collections import deque
from itertools import islice
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..core.errors import ConfigurationError, ProtocolError, SchedulerError
from ..core.messages import Message
from ..core.process import CLIENT, Context, Process, ProcessFactory, ProcessId
from ..core.values import MaybeValue
from ..obs import (
    Observability,
    SpanRecorder,
    TraceRecorder,
    message_label,
    prometheus_text,
    timeseries_row,
)
from ..smr.log import SMRReplica, SubmitCommand
from ..storage.recovery import (
    NodeStorage,
    ReplicaPersister,
    fetch_snapshot,
    range_state_chunks,
    snapshot_chunks,
)
from .codec import (
    MAX_FRAME_BYTES,
    SUPPORTED_WIRE_VERSIONS,
    WIRE_VERSION_JSON,
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
        trace: bool = False,
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
        # Metrics are on by default; the flight-recorder trace and span
        # recorder are opt-in (``trace=True`` / ``trace_sample=N``) or
        # bring-your-own via ``obs``. ``trace_sample=0`` records spans but
        # mints no traces of its own — the follower configuration, which
        # adopts traces arriving from clients and peers.
        self.obs = (
            obs
            if obs is not None
            else Observability(
                trace=TraceRecorder() if trace else None,
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

        self.decisions: List[Tuple[float, MaybeValue]] = []
        self.errors: List[BaseException] = []
        self._decided = asyncio.Event()
        self._crashed = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._addresses: List[Address] = []
        self._t0 = 0.0
        self._timer_generation: Dict[str, int] = {}
        self._timer_handles: Dict[str, asyncio.TimerHandle] = {}
        # Outboxes hold (frame, message) pairs: a broadcast encodes once at
        # this node's preferred wire version and the same bytes object is
        # queued for every peer; a sender whose link negotiated a
        # *different* version re-encodes from the message, so mixed-codec
        # clusters interoperate.
        self._outbox: Dict[ProcessId, Deque[Tuple[bytes, Message]]] = {}
        self._outbox_wake: Dict[ProcessId, asyncio.Event] = {}
        self._tasks: List[asyncio.Task] = []
        self._writers: Set[asyncio.StreamWriter] = set()
        # Per-link negotiation outcomes, surfaced in stats snapshots:
        # outbound peer links (we dialed), inbound peer links (they
        # dialed), client links by agreed version, and which outbound
        # links agreed to carry Traced envelopes.
        self._link_versions: Dict[ProcessId, int] = {}
        self._peer_links_in: Dict[ProcessId, int] = {}
        self._client_link_versions: Dict[int, int] = {}
        self._link_trace: Dict[ProcessId, bool] = {}

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
        shutdown that quietly fsyncs everything.
        """
        self._crashed = True
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
            # Persist before polling the client service: replies must not
            # leave for a decision that is not yet durable. Both run
            # before this activation returns to the event loop, i.e.
            # before any sender task can write this activation's frames.
            if self.persister is not None and not self._crashed:
                self.persister.after_activation()
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
        if self._spans_enabled and self._link_trace.get(dst):
            outbound = self._maybe_wrap(message, "send", dst=dst)
        frame = self.codec.encode(outbound)
        self.obs.registry.inc(f"sent_bytes.{label}", len(frame))
        self._enqueue(dst, frame, outbound)

    def _broadcast(self, message: Message, include_self: bool) -> None:
        """Encode once, enqueue the same frame for every peer.

        When spans are on and at least one outbound link agreed to carry
        trace context, a traced slot's frame is wrapped (and encoded)
        once; senders whose link did *not* agree strip the envelope
        per-frame instead (see :meth:`_peer_sender`), so the homogeneous
        case keeps the encode-once fast path. Self-delivery always gets
        the bare message — no wire, no envelope.
        """
        label = message_label(message)
        outbound = message
        if self._spans_enabled and any(self._link_trace.values()):
            outbound = self._maybe_wrap(message, "bcast")
        frame = self.codec.encode(outbound)
        peers = self.n - 1
        self.obs.registry.inc(f"sent.{label}", peers + (1 if include_self else 0))
        self.obs.registry.inc(f"sent_bytes.{label}", len(frame) * peers)
        for dst in range(self.n):
            if dst == self.pid:
                continue
            self._enqueue(dst, frame, outbound)
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

    def _enqueue(self, dst: ProcessId, frame: bytes, message: Message) -> None:
        queue = self._outbox[dst]
        queue.append((frame, message))
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
        while not self._crashed:
            try:
                reader, writer = await asyncio.open_connection(*self._addresses[peer])
            except OSError as exc:
                self.log.debug(
                    "peer %d unreachable (%s); retry in %.2fs",
                    peer,
                    type(exc).__name__,
                    backoff,
                )
                self.obs.registry.inc(f"net.reconnects.p{peer}")
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, self.reconnect_max)
                continue
            try:
                enable_nodelay(writer)
                link_version, link_trace = await self._shake_hands(
                    reader,
                    writer,
                    NodeHello(
                        self.pid,
                        max_wire_version=self.codec.max_wire_version,
                        registry_hash=self.codec.registry_hash,
                        trace_ok=self._spans_enabled,
                    ),
                )
                if self._crashed:
                    # stop() may have cancelled us mid-handshake; on 3.11
                    # wait_for swallows that cancellation when the ack
                    # lands in the same tick, so re-check and bail rather
                    # than re-entering the send loop with the cancel lost.
                    return
                if link_version != self.codec.wire_version:
                    self.log.info(
                        "link to peer %d speaks wire v%d (we prefer v%d)",
                        peer,
                        link_version,
                        self.codec.wire_version,
                    )
                backoff = self.reconnect_initial
                self._link_versions[peer] = link_version
                self._link_trace[peer] = bool(link_trace) and self._spans_enabled
                reencode = link_version != self.codec.wire_version
                # A link whose peer declined trace context must not see
                # Traced envelopes: strip (re-encode the inner message)
                # per frame. Only possible when this node records spans
                # at all, so the untraced fast path stays branch-free.
                strip = self._spans_enabled and not self._link_trace[peer]
                registry = self.obs.registry
                encode = self.codec.encode
                while True:
                    while not queue:
                        wake.clear()
                        await wake.wait()
                    # Flush the whole queued burst with one drain(); pop
                    # only after it succeeds, so everything written when a
                    # connection dies is re-sent on reconnect. Frames
                    # queued during the await are left for the next burst.
                    # Outbox frames are pre-encoded at our preferred
                    # version; a link that negotiated the other format
                    # re-encodes from the message object instead.
                    burst = len(queue)
                    if reencode or strip:
                        parts: List[bytes] = []
                        for frame, message in islice(queue, burst):
                            if strip and type(message) is Traced:
                                parts.append(encode(message.inner, link_version))
                            elif reencode:
                                parts.append(encode(message, link_version))
                            else:
                                parts.append(frame)
                        writer.write(b"".join(parts))
                    else:
                        writer.write(
                            b"".join(frame for frame, _message in islice(queue, burst))
                        )
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
                continue
            finally:
                try:
                    writer.close()
                except Exception as exc:
                    self.log.debug(
                        "closing link to peer %d raised %r", peer, exc
                    )

    async def _shake_hands(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        hello: Message,
    ) -> Tuple[int, bool]:
        """Send *hello* and negotiate the link (dialer side).

        Returns ``(wire_version, trace_ok)``. The hello is always written
        as v1 so any receiver can read it. When this codec can speak
        beyond v1, wait for the receiver's :class:`HelloAck`; a silent
        receiver (a pre-negotiation build) or an undecodable answer means
        fall back to JSON — and no trace context — never stall. Trace
        agreement needs an explicit ``trace_ok`` on the ack, so a legacy
        peer is never sent a :class:`Traced` envelope.
        """
        writer.write(self.codec.encode(hello, WIRE_VERSION_JSON))
        await writer.drain()
        if self.codec.max_wire_version <= WIRE_VERSION_JSON:
            return WIRE_VERSION_JSON, False
        try:
            ack = await asyncio.wait_for(
                read_frame(reader, self.codec), self.hello_timeout
            )
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, CodecError):
            return WIRE_VERSION_JSON, False
        if isinstance(ack, HelloAck) and ack.wire_version in SUPPORTED_WIRE_VERSIONS:
            version = min(ack.wire_version, self.codec.max_wire_version)
            return version, bool(ack.trace_ok)
        return WIRE_VERSION_JSON, False

    async def _ack_hello(
        self, hello: Message, writer: asyncio.StreamWriter
    ) -> int:
        """Answer an inbound hello; returns the link's agreed version.

        A hello announcing only v1 is a legacy dialer that will not read
        an ack — stay silent and speak JSON. Anything newer gets a
        :class:`HelloAck` (written as v1) naming the agreed version and
        whether this node records spans (the dialer's go-ahead to send
        trace context).
        """
        peer_max = getattr(hello, "max_wire_version", WIRE_VERSION_JSON)
        peer_hash = getattr(hello, "registry_hash", "")
        version = self.codec.negotiate(peer_max, peer_hash)
        if peer_max > WIRE_VERSION_JSON:
            writer.write(
                self.codec.encode(
                    HelloAck(
                        version,
                        self.codec.registry_hash,
                        trace_ok=self._spans_enabled,
                    ),
                    WIRE_VERSION_JSON,
                )
            )
            await writer.drain()
        return version

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
                payload = await reader.readexactly(payload_len)
                hello = self.codec.decode_payload(payload)
            except (asyncio.IncompleteReadError, ConnectionError, CodecError):
                return
            if isinstance(hello, NodeHello):
                version = await self._ack_hello(hello, writer)
                self._peer_links_in[hello.pid] = version
                await self._serve_peer(reader, hello.pid)
            elif isinstance(hello, ClientHello):
                wire_version = await self._ack_hello(hello, writer)
                self._client_link_versions[wire_version] = (
                    self._client_link_versions.get(wire_version, 0) + 1
                )
                await self._serve_client(reader, writer, wire_version)
            # Anything else: close silently (port scanners, bad handshakes).
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
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        wire_version: int = WIRE_VERSION_JSON,
    ) -> None:
        # Served even with no client service attached: stats are a
        # property of the runtime, not of the KV layer, so a consensus-only
        # node still answers ``StatsRequest``.
        replies: "asyncio.Queue[Message]" = asyncio.Queue()
        loop = asyncio.get_event_loop()
        flusher = loop.create_task(
            self._flush_replies(replies, writer, wire_version)
        )
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
                        replies.put_nowait(self._stats_reply(request))
                    elif isinstance(request, SnapshotRequest):
                        for chunk in self._snapshot_reply(request):
                            replies.put_nowait(chunk)
                    elif isinstance(request, RangeSnapshotRequest):
                        for chunk in self._range_snapshot_reply(request):
                            replies.put_nowait(chunk)
                    elif (
                        isinstance(request, ClientSubmit)
                        and self.client_service is not None
                    ):
                        self.client_service.submit(self, request, replies.put_nowait)
        finally:
            flusher.cancel()
            if flusher in self._tasks:
                self._tasks.remove(flusher)

    async def _flush_replies(
        self,
        replies: "asyncio.Queue[Message]",
        writer: asyncio.StreamWriter,
        wire_version: int = WIRE_VERSION_JSON,
    ) -> None:
        encode = self.codec.encode
        while True:
            batch = [await replies.get()]
            # Coalesce every reply already queued into one write + drain;
            # pipelined clients complete many commands per activation.
            while not replies.empty():
                batch.append(replies.get_nowait())
            writer.write(b"".join(encode(reply, wire_version) for reply in batch))
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

    def _snapshot_reply(self, request: SnapshotRequest) -> List[SnapshotChunk]:
        """Serve a state-transfer request from the *live* replica.

        Serialization happens synchronously on the event loop, so the
        shipped state is a consistent point-in-time view (no activation
        can interleave). Non-replica processes answer with a terminal
        ``upto=-1`` chunk so the fetcher can move on to the next peer.
        """
        if not isinstance(self.process, SMRReplica):
            return [
                SnapshotChunk(
                    request_id=request.request_id, seq=0, last=True, upto=-1, payload=""
                )
            ]
        chunks = snapshot_chunks(self.codec, self.process, request.request_id)
        self.obs.registry.inc("storage.snapshots_served")
        return chunks

    def _range_snapshot_reply(
        self, request: RangeSnapshotRequest
    ) -> List[SnapshotChunk]:
        """Serve a hash-slot range extraction for a rebalance.

        Same chunk stream as full state transfer; the payload is a range
        document. Only meaningful once the range is fenced at this group
        — the fence makes the extracted state final.
        """
        if not isinstance(self.process, SMRReplica):
            return [
                SnapshotChunk(
                    request_id=request.request_id, seq=0, last=True, upto=-1, payload=""
                )
            ]
        chunks = range_state_chunks(
            self.codec,
            self.process,
            request.request_id,
            request.lo,
            request.hi,
            request.slots,
        )
        self.obs.registry.inc("storage.range_snapshots_served")
        return chunks

    # ------------------------------------------------------------------
    # Catch-up: pull a peer's state instead of replaying history.
    # ------------------------------------------------------------------

    async def _catch_up_from_peers(
        self, rounds: int = 5, initial_delay: float = 0.25
    ) -> None:
        """Fetch and install a peer snapshot while behind the cluster.

        Runs once after launch (only on storage-enabled nodes): each
        round asks peers — nearest pid first — for their live state and
        installs it when their applied frontier is ahead of ours. Stops
        when no reachable peer is ahead (fresh boots converge on the
        first round) or after *rounds* installs; from there the normal
        message flow keeps the node current.
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
                    state = await fetch_snapshot(
                        self._addresses[peer],
                        self.codec,
                        client_id=f"catchup-{self.pid}",
                        timeout=5.0,
                    )
                except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, CodecError):
                    continue
                if state is None or self._crashed:
                    continue
                installed = self.persister.install_remote(state)
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
        """Negotiated codec state, per connection (JSON-safe).

        Closes the PR 6 observability gap: without this, a mixed-codec
        cluster is indistinguishable from a uniform one when scraping.
        Keys are strings so the dict survives both wire formats.
        """
        return {
            "codec": "json" if self.codec.wire_version == WIRE_VERSION_JSON else "binary",
            "wire_version": self.codec.wire_version,
            "max_wire_version": self.codec.max_wire_version,
            "registry_hash": self.codec.registry_hash,
            "peer_links_out": {
                str(peer): version
                for peer, version in sorted(self._link_versions.items())
            },
            "peer_links_in": {
                str(peer): version
                for peer, version in sorted(self._peer_links_in.items())
            },
            "client_links": {
                str(version): count
                for version, count in sorted(self._client_link_versions.items())
            },
            "traced_links": sorted(
                peer for peer, agreed in self._link_trace.items() if agreed
            ),
        }

    def _stats_reply(self, request: StatsRequest) -> StatsReply:
        trace: Tuple = ()
        if request.include_trace and self.obs.trace.enabled:
            trace = tuple(self.obs.trace.events())
        spans: Tuple = ()
        if request.include_spans and self.obs.spans.enabled:
            spans = tuple(self.obs.spans.events())
        return StatsReply(
            request_id=request.request_id,
            pid=self.pid,
            snapshot=self.stats_snapshot(),
            trace=trace,
            spans=spans,
        )


def start_node(
    pid: ProcessId,
    addresses: Sequence[Address],
    factory: ProcessFactory,
    codec: Optional[MessageCodec] = None,
    client_service: Optional[ClientService] = None,
    trace: bool = False,
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
        trace=trace,
        trace_sample=trace_sample,
        data_dir=data_dir,
        fsync=fsync,
        snapshot_every=snapshot_every,
        timeseries_path=timeseries_path,
    )
