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

A client link (first frame :class:`~repro.net.wire.ClientHello`) asks
for stats, which the node answers, state transfers
(:mod:`repro.storage.recovery` serves them and runs catch-up) and KV
submits (a :class:`~repro.net.service.KVService`, if given). HTTP
``/metrics``, loop lag and the time series live in :mod:`repro.obs.export`.

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
import socket
import time
from collections import deque
from functools import partial
from itertools import islice
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.errors import ConfigurationError, ProtocolError, SchedulerError
from ..core.messages import Message
from ..core.process import Context, Process, ProcessFactory, ProcessId
from ..core.values import MaybeValue
from ..obs import Observability, SpanRecorder, message_label
from ..obs.export import sample_loop_lag, serve_http, write_timeseries
from ..smr.log import SMRReplica
from ..storage.recovery import NodeStorage, ReplicaPersister, catch_up, serve_transfer
from .codec import (
    MAX_FRAME_BYTES,
    CodecError,
    FrameDecoder,
    MessageCodec,
    read_frame,
)
from .netlog import node_logger
from .service import KVService
from .wire import (
    ClientHello,
    ClientSubmit,
    HelloAck,
    NodeHello,
    RangeSnapshotRequest,
    SnapshotRequest,
    StatsReply,
    StatsRequest,
    Traced,
)

#: (host, port) pairs, indexed by pid.
Address = Tuple[str, int]

#: A peer sender's first retry delay after a failed dial; it doubles on
#: every further failure up to :data:`RECONNECT_MAX` seconds.
RECONNECT_INITIAL = 0.05
RECONNECT_MAX = 1.0
#: Seconds a peer sender waits for the acceptor's :class:`HelloAck`.
HELLO_TIMEOUT = 1.0


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
    """Concrete :class:`Context` of a live node; one per node, shared by
    all of its activations."""

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
        client_service: Optional[KVService] = None,
        trace_sample: Optional[int] = None,
        data_dir: Optional[str] = None,
        fsync: bool = True,
        snapshot_every: int = 256,
        outbox_limit: Optional[int] = None,
        timeseries_path: Optional[str] = None,
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
        # Metrics are always on; the span recorder is opt-in
        # (``trace_sample=N``). ``trace_sample=0`` records spans but mints
        # no traces of its own — the follower configuration, which adopts
        # traces arriving from clients and peers.
        self.obs = Observability(
            spans=SpanRecorder(sample=trace_sample) if trace_sample is not None else None,
            node=pid,
        )
        self.timeseries_path = timeseries_path
        self.log = node_logger(pid)
        self.process: Process = factory(pid, n)
        if client_service is not None and not isinstance(self.process, SMRReplica):
            raise ConfigurationError(
                f"a client service needs an SMRReplica, got {type(self.process).__name__}"
            )
        # Span plumbing, resolved once: the replica's slot->trace map (the
        # send path checks it per frame) and whether this node records
        # spans at all (the master off-switch for every tracing branch).
        self._spans_enabled = self.obs.spans.enabled
        self._slot_traces: Optional[Dict[int, str]] = getattr(
            self.process, "slot_traces", None
        )

        # Durability: present only when a data directory was given and the
        # hosted process is an SMR replica (the only stateful process).
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
        self._crashed = False
        self._server: Optional[asyncio.base_events.Server] = None
        #: The address book, indexed by pid; set by :meth:`launch`.
        self.addresses: List[Address] = []
        self._t0 = 0.0
        self._timer_generation: Dict[str, int] = {}
        self._timer_handles: Dict[str, asyncio.TimerHandle] = {}
        # Every activation runs under this one context: it holds only the
        # node, so there is nothing per activation to build.
        self._ctx = _NodeContext(self)
        # Outboxes hold encoded frames: a broadcast encodes once and the
        # same bytes object is queued for every peer.
        self._outbox: Dict[ProcessId, Deque[bytes]] = {}
        self._outbox_wake: Dict[ProcessId, asyncio.Event] = {}
        self._tasks: List[asyncio.Task] = []
        self._connections: Set[asyncio.Task] = set()  # one per inbound link
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
        self._server = await asyncio.start_server(self._accept, self.host, self.port)
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
        self.addresses = list(addresses)
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
        if self.persister is not None and self.n > 1:
            self._tasks.append(loop.create_task(catch_up(self)))
        self._tasks.append(loop.create_task(sample_loop_lag(self)))
        if self.timeseries_path is not None:
            self._tasks.append(
                loop.create_task(write_timeseries(self, self.timeseries_path))
            )

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
        tasks = self._tasks + list(self._connections)
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
        try:
            handler(self._ctx)
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

    @property
    def decision(self) -> Optional[MaybeValue]:
        return self.decisions[0][1] if self.decisions else None

    # ------------------------------------------------------------------
    # Peer links: one directed connection per ordered pair, sender-owned.
    # ------------------------------------------------------------------

    async def _peer_sender(self, peer: ProcessId) -> None:
        queue = self._outbox[peer]
        wake = self._outbox_wake[peer]
        backoff = RECONNECT_INITIAL
        registry = self.obs.registry
        while not self._crashed:
            try:
                _reader, writer = await dial(
                    self.addresses[peer], self.codec, NodeHello(self.pid), HELLO_TIMEOUT
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
                backoff = min(backoff * 2, RECONNECT_MAX)
                continue
            if self._crashed:
                # stop() may have cancelled us mid-handshake; on 3.11
                # wait_for swallows that cancellation when the ack lands
                # in the same tick, so re-check and bail rather than
                # re-entering the send loop with the cancel lost.
                writer.close()
                return
            backoff = RECONNECT_INITIAL
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

    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # A plain callback, so the handler task is ours: stop() cancels
        # and awaits it. asyncio's own handler task would be cancelled by
        # the loop's shutdown instead, and Python 3.11 logs that with a
        # CancelledError traceback.
        task = asyncio.get_event_loop().create_task(self._on_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

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
                await serve_http(self, header, reader, writer)
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
        # Served even with no client service attached: stats and
        # transfers are properties of the runtime, not of the KV layer,
        # so a consensus-only node still answers them (a transfer with
        # one terminal ``upto=-1`` chunk).
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
                        for chunk in serve_transfer(self, request):
                            reply(chunk)
                    elif isinstance(request, ClientSubmit):
                        service = self.client_service
                        if service is None or not service.submit(self, request, reply):
                            return  # refused, or no service here: closes the link
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
