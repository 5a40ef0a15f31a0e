"""The live node runtime: one :class:`Process` served over asyncio TCP.

A :class:`NodeServer` hosts exactly one unmodified
:class:`repro.core.process.Process` state machine — the same object the
discrete-event simulator runs — and adapts its :class:`Context` onto the
node's :class:`~repro.net.transport.Transport`, which owns every socket:

* ``send``/``broadcast`` encode the message **once** and queue the
  ready-made frame on the peers' outboxes (see :mod:`repro.net.transport`
  for links, reconnects and the handshake).
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

The transport hands the node each burst read from a peer link, which it
delivers message by message, and each burst from a client link, whose
requests it answers: stats, state transfers
(:mod:`repro.storage.recovery` serves them and runs catch-up) and KV
submits (a :class:`~repro.net.service.KVService`, if given). HTTP
``/metrics``, loop lag and the time series live in :mod:`repro.obs.export`.

A node with a data directory holds its output, not its loop: each
activation's peer frames are staged, and while any WAL commit handed to
the storage writer is not yet durable they — and every client-link
answer read from replica state — go into the transport's hold, tagged
with the newest ticket. The writer's completion report releases every
entry its ticket covers, in order (see :mod:`repro.storage.recovery`).
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError, ProtocolError, SchedulerError
from ..core.messages import Message
from ..core.process import Context, Process, ProcessFactory, ProcessId
from ..core.values import MaybeValue
from ..obs import Observability, SpanRecorder, message_label
from ..obs.export import sample_loop_lag, write_timeseries
from ..smr.log import SMRReplica
from ..storage.recovery import NodeStorage, ReplicaPersister, catch_up, serve_transfer
from .codec import MessageCodec
from .netlog import node_logger
from .service import KVService
from .transport import Address, Burst, Outbox, Transport
from .wire import (
    ClientSubmit,
    RangeSnapshotRequest,
    SnapshotRequest,
    StatsReply,
    StatsRequest,
    Traced,
)


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


class NodeServer:
    """One live node: a process, its transport, and its client service.

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
        timeseries_path: Optional[str] = None,
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"need at least one process, got n={n}")
        if not 0 <= pid < n:
            raise ConfigurationError(f"pid {pid} out of range for n={n}")
        if trace_sample is not None and trace_sample < 0:
            raise ConfigurationError(
                f"trace_sample must be >= 0 or None, got {trace_sample}"
            )
        self.pid = pid
        self.n = n
        self.codec = codec if codec is not None else MessageCodec()
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
        self.transport = Transport(
            pid,
            self.codec,
            host,
            port,
            self.obs,
            self.log,
            deliver=self._deliver_burst,
            request=self._serve_requests,
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
        # Where a sent frame goes: straight onto its link's outbox, or —
        # with a persister — onto this activation's staged frames, which
        # _flush_staged sends or holds until their records are durable.
        self._post: Callable[[Outbox, bytes], None] = (
            Outbox.put if self.persister is None else self._stage
        )
        self._staged: List[Tuple[Outbox, bytes]] = []

        self.decisions: List[Tuple[float, MaybeValue]] = []
        self.errors: List[BaseException] = []
        self._crashed = False
        #: The address book, indexed by pid; set by :meth:`launch`.
        self.addresses: List[Address] = []
        self._t0 = 0.0
        self._timer_generation: Dict[str, int] = {}
        self._timer_handles: Dict[str, asyncio.TimerHandle] = {}
        # Every activation runs under this one context: it holds only the
        # node, so there is nothing per activation to build.
        self._ctx = _NodeContext(self)
        self._tasks: List[asyncio.Task] = []  # catch-up and the samplers

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
        return self.transport.address

    async def bind(self) -> Address:
        """Start listening; resolves the port when 0 was requested."""
        host, port = await self.transport.bind()
        if self.persister is not None:
            # Record the bound address so a restart (same data dir) can
            # rebind the same port and peers reconnect deterministically.
            self.persister.storage.update_meta(host=host, port=port)
        return self.address

    async def launch(self, addresses: Sequence[Address]) -> None:
        """Start peer senders and run the process's ``on_start``."""
        if len(addresses) != self.n:
            raise ConfigurationError(
                f"address book has {len(addresses)} entries for n={self.n}"
            )
        self.addresses = list(addresses)
        self.transport.start(self.addresses)
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
        self._staged.clear()
        for handle in self._timer_handles.values():
            handle.cancel()
        self._timer_handles.clear()
        tasks, self._tasks = self._tasks, []
        for task in tasks:
            task.cancel()
        await self.transport.close()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
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

    def _deliver_burst(self, sender: ProcessId, burst: Burst) -> bool:
        """A peer link's burst: one activation per message, in order."""
        inc = self.obs.registry.inc
        for message, size in burst:
            if type(message) is Traced:
                message = self._unwrap_traced(message, sender)
            label = message_label(message)
            inc(f"recv.{label}")
            inc(f"recv_bytes.{label}", size)
            self._deliver(sender, message)
        return not self._crashed

    def _deliver_self(self, message: Message) -> None:
        if not self._crashed:
            # Counted as a receive (no bytes: nothing hit the wire) so the
            # recv.* totals line up with the simulator, where self-sends
            # travel through the event queue like any delivery.
            self.obs.registry.inc(f"recv.{message_label(message)}")
            self._deliver(self.pid, message)

    def _serve_requests(self, outbox: Outbox, burst: Burst) -> bool:
        """A client link's burst; ``False`` closes the link.

        Served even with no client service attached: stats and transfers
        are properties of the runtime, not of the KV layer, so a
        consensus-only node still answers them (a transfer with one
        terminal ``upto=-1`` chunk). Stats describe the runtime and never
        wait; every other answer goes through :meth:`_reply`.
        """
        reply = partial(self._reply, outbox)
        for request, _size in burst:
            if isinstance(request, StatsRequest):
                outbox.put(self.codec.encode(self._stats_reply(request)))
            elif isinstance(request, (SnapshotRequest, RangeSnapshotRequest)):
                for chunk in serve_transfer(self, request):
                    reply(chunk)
            elif isinstance(request, ClientSubmit):
                service = self.client_service
                if service is None or not service.submit(self, request, reply):
                    return False  # refused, or no service here
        return True

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
        self._post(self.transport.outboxes[dst], frame)

    def _broadcast(self, message: Message, include_self: bool) -> None:
        """Encode once, queue the same frame for every peer.

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
        post, outboxes = self._post, self.transport.outboxes
        for dst in range(self.n):
            if dst != self.pid:
                post(outboxes[dst], frame)
        if include_self:
            asyncio.get_event_loop().call_soon(self._deliver_self, message)

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
    # Staging: output waits for its records, the loop does not.
    # ------------------------------------------------------------------

    def _stage(self, outbox: Outbox, frame: bytes) -> None:
        self._staged.append((outbox, frame))

    def _flush_staged(self) -> None:
        """End of an activation: its frames go out, or into the hold if
        any record handed to the writer is not durable yet."""
        must_hold = self._must_hold()  # even without frames: it releases
        staged = self._staged
        if not staged:
            return
        if must_hold:
            self.transport.hold(self.persister.writer.issued, staged)
            self._staged = []
            return
        for outbox, frame in staged:
            outbox.put(frame)
        staged.clear()

    def _reply(self, outbox: Outbox, message: Message) -> None:
        """A client-link answer: sent now, or held behind the newest ticket.

        Every answer read from replica state (results, duplicate and
        retry answers, transfer chunks) may rest on records still in
        flight, so on a durable node it waits like a frame would.
        """
        frame = self.codec.encode(message)
        if self.persister is not None and self._must_hold():
            self.transport.hold(self.persister.writer.issued, [(outbox, frame)])
        else:
            outbox.put(frame)

    def _must_hold(self) -> bool:
        """Whether output must wait: a handed-off record is not durable.

        Collects first when the writer finished jobs whose report is
        still queued on the loop, so nothing waits on a stale view.
        """
        writer = self.persister.writer
        if writer.uncollected:
            self._on_durable()
        return writer.durable < writer.issued

    def _on_durable(self) -> None:
        """The writer finished jobs: release every held entry its ticket
        now covers (runs on the loop)."""
        if self._crashed:
            return
        writer = self.persister.writer
        self.transport.release(writer.collect())
        failure = writer.failure
        if failure is not None and failure not in self.errors:
            # Fail-stop: nothing handed off later can turn durable, so
            # everything held stays held.
            self.errors.append(failure)
            self.log.error("storage writer failed, output held: %r", failure)

    # ------------------------------------------------------------------
    # Spans on the wire.
    # ------------------------------------------------------------------

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
        """This node's registry hash and live link counts (see
        :meth:`Transport.wire_info`)."""
        return self.transport.wire_info()

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
