"""State-machine replication over per-slot consensus instances.

This is the setting the paper's Introduction appeals to: a client submits
its command to one of the consensus processes — a *proxy* (Schneider
1990) — and the proxy answers once the command is decided and applied.
What matters for client latency is that the **proxy** decides fast; the
other processes can learn a step later. That asymmetry is exactly what the
paper's e-two-step definition captures, and why the object bound
``max{2e+f-1, 2f+1}`` (rather than Lamport's ``2e+f+1``) governs how many
replicas a deployment needs.

Design: an :class:`SMRReplica` multiplexes one consensus-object instance
(Figure 1, red lines) per log slot. Inner protocol messages travel inside
a :class:`Slotted` envelope; inner timers are namespaced per slot; all
slots share one Ω. A proxy proposes its client's command in the lowest
slot it believes free; on losing a slot race it re-proposes in the next.
Decided slots apply to the :class:`~repro.smr.kvstore.KVStore` in slot
order with duplicate suppression. A periodic gap-repair task lets the Ω
leader flush stuck slots with no-ops, so a crashed proxy cannot stall the
log.

Throughput lives strictly above the per-slot protocol, behind two knobs:

* ``batch_size`` — a proxy proposes a :class:`~repro.smr.kvstore.CommandBatch`
  of up to that many queued commands per slot (members apply in batch
  order; a command that rides two batches after a lost slot race is
  suppressed by the store's idempotence-by-id);
* ``window`` — up to that many of the proxy's slots may be undecided at
  once, replacing the one-in-flight discipline (decided slots still apply
  strictly in slot order).

Both default to 1: one slot in flight, holding a one-member batch. Every
slot value is a :class:`~repro.smr.kvstore.CommandBatch`, gap-repair
no-ops included.

One body per slot: a batch is large and Figure 1 would ship it six times
per slot at n=3 (``Propose`` out, a ``TwoB`` vote back from each peer,
``Decide`` out again). The envelope layer here sends a ``TwoB`` or
``Decide`` to a node known to hold the body with a
:class:`~repro.smr.kvstore.BatchRef` in the value's place, and resolves
it back to the held object on receipt, so the inner instances only ever
see full values. A reference that cannot be resolved is never waited
for: a vote is dropped (the slow path, whose ``OneB``/``TwoA`` carry
bodies, still decides the slot) and a decision is fetched from its
sender with one :class:`BodyRequest`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.errors import ConfigurationError
from ..core.messages import Message
from ..core.process import ClientRequest, Context, Process, ProcessFactory, ProcessId
from ..core.values import is_bottom
from ..obs import Observability, PATH_LEARNED, decision_record
from ..omega import OmegaFactory, OmegaService, StaticOmega
from ..protocols.twostep import (
    Decide,
    OneB,
    PersistedSlotState,
    Propose,
    TwoA,
    TwoB,
    TwoStepConfig,
    TwoStepProcess,
    persisted_slot_state,
    restore_persisted_slot_state,
)
from .kvstore import BatchRef, CommandBatch, KVCommand, KVStore

GAP_TIMER = "smr:gap"
SLOT_TIMER_PREFIX = "slot:"


@dataclass(frozen=True)
class Slotted(Message):
    """Envelope carrying an inner consensus message for one log slot."""

    slot: int
    inner: Message


@dataclass(frozen=True)
class BodyRequest(Message):
    """Asks the sender of a ``Decide(ref)`` for the body it referred to.

    Travels inside :class:`Slotted`; the decider answers with the plain
    full ``Decide``.
    """

    ref: BatchRef


#: Inner messages that carry proposal values, and in which fields.
_BODY_FIELDS = {
    Propose: ("value",),
    TwoB: ("value",),
    Decide: ("value",),
    TwoA: ("value",),
    OneB: ("value", "decided", "initial_value"),
}
#: The two whose value may travel as a :class:`BatchRef`; the rest always
#: carry full bodies.
_BY_REFERENCE = (TwoB, Decide)


def _with_value(message: Message, value: Any) -> Message:
    """A ``TwoB``/``Decide`` like *message*, carrying *value* instead."""
    return TwoB(message.ballot, value) if type(message) is TwoB else Decide(value)


class _HeldBody:
    """A batch body this replica holds for one slot, and who else does."""

    __slots__ = ("body", "holders")

    def __init__(self, body: CommandBatch, holders: Set[ProcessId]) -> None:
        self.body = body
        self.holders = holders


@dataclass(frozen=True)
class SubmitCommand(ClientRequest):
    """Client submission of a command to its proxy replica.

    ``trace_id`` is non-empty when the submitting client asked for this
    command to be span-traced; the replica adopts it at batch seal.
    """

    command: KVCommand
    trace_id: str = ""


class _SharedOmega(OmegaService):
    """Per-slot Ω view: delegates leadership, swallows lifecycle hooks.

    The replica owns the real Ω (one heartbeat stream for the whole
    process, not one per slot); inner consensus instances get this wrapper
    so their ``on_start`` does not re-initialize it.
    """

    def __init__(self, real: OmegaService) -> None:
        self._real = real

    def leader(self, now: float) -> ProcessId:
        return self._real.leader(now)


class _SlotContext(Context):
    """Adapter giving an inner consensus instance a slot-scoped world."""

    def __init__(self, outer: Context, replica: "SMRReplica", slot: int) -> None:
        self._outer = outer
        self._replica = replica
        self._slot = slot

    @property
    def now(self) -> float:
        return self._outer.now

    @property
    def pid(self) -> ProcessId:
        return self._outer.pid

    @property
    def n(self) -> int:
        return self._outer.n

    @property
    def obs(self) -> Observability:
        # Inner consensus instances share the replica's node-level sink,
        # so their fast/slow decision counters land in one registry.
        return self._outer.obs

    def send(self, dst: ProcessId, message: Message) -> None:
        short, _ = self._replica._by_reference(self._slot, message, (dst,))
        self._outer.send(dst, Slotted(self._slot, short))

    def broadcast(self, message: Message, include_self: bool = False) -> None:
        # One envelope for everyone whenever everyone gets the same inner
        # message, so the live runtime encodes slot traffic once.
        outer = self._outer
        targets = range(outer.n) if include_self else outer.others
        short, knowers = self._replica._by_reference(self._slot, message, targets)
        if not knowers or len(knowers) == len(targets):
            outer.broadcast(Slotted(self._slot, short), include_self)
        else:
            for dst in targets:
                outer.send(dst, Slotted(self._slot, short if dst in knowers else message))

    def set_timer(self, name: str, delay: float) -> None:
        self._outer.set_timer(f"{SLOT_TIMER_PREFIX}{self._slot}:{name}", delay)

    def cancel_timer(self, name: str) -> None:
        self._outer.cancel_timer(f"{SLOT_TIMER_PREFIX}{self._slot}:{name}")

    def decide(self, value) -> None:
        self._replica._on_slot_decided(self._outer, self._slot, value)


class SMRReplica(Process):
    """One replica of the replicated key-value service."""

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        f: int,
        e: int,
        delta: float = 1.0,
        omega: Optional[OmegaService] = None,
        consensus_config: Optional[TwoStepConfig] = None,
        batch_size: int = 1,
        window: int = 1,
    ) -> None:
        super().__init__(pid, n)
        base = consensus_config if consensus_config is not None else TwoStepConfig(
            f=f, e=e, delta=delta, is_object=True
        )
        if not base.is_object:
            raise ConfigurationError("SMR runs over the consensus object variant")
        base.validate(n)
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self.config = base
        self.f = f
        self.e = e
        self.delta = delta
        self.batch_size = batch_size
        self.window = window
        self.omega = omega if omega is not None else StaticOmega(0)

        self._slots: Dict[int, TwoStepProcess] = {}
        self._inflight: Dict[int, CommandBatch] = {}  # my proposal per slot
        self._queue: Deque[KVCommand] = deque()
        self._batch_seq = 0  # deterministic per-proxy batch naming
        self.decided: Dict[int, CommandBatch] = {}
        self.decide_times: Dict[int, float] = {}
        self.store = KVStore()
        self.applied_upto = 0  # next slot index awaiting application
        self.submissions: Dict[str, float] = {}  # command_id -> submit time
        self.commit_times: Dict[str, float] = {}  # command_id -> slot decide time
        self.results: Dict[str, Tuple[Any, float]] = {}  # id -> (result, apply time)
        self.decision_log: Dict[int, Dict[str, Any]] = {}  # slot -> decision record
        # Batch bodies held per open slot, keyed by reference; an applied
        # slot's entry goes at the next activation (see _drop_applied_bodies).
        self._bodies: Dict[int, Dict[BatchRef, _HeldBody]] = {}
        # Ids whose result landed in ``results`` since the client service
        # last drained this (it does after every activation); same keys as
        # ``results``, so an undrained simulator run is bounded by it.
        self.finished: List[str] = []
        self._slot_proposed: Dict[int, float] = {}  # slot -> my first propose time
        # Span-tracing state (all empty unless ctx.obs.spans is enabled):
        # a sampled slot carries one trace id from seal to apply, and each
        # traced command remembers its trace so the reply can echo it.
        self.slot_traces: Dict[int, str] = {}  # slot -> trace id
        self.pending_traces: Dict[str, str] = {}  # command_id -> client trace id
        self.command_traces: Dict[str, str] = {}  # command_id -> trace id
        # Slots whose inner state may have changed, or that were decided,
        # this activation; the durability layer drains this after every
        # activation to journal only genuine changes. Bounded by ``_slots``
        # and ``decided`` (same keys), so simulator runs without a
        # persister pay one set-add per touch.
        self.dirty_slots: Set[int] = set()

    # ------------------------------------------------------------------
    # Activations.
    # ------------------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self.omega.on_start(ctx)
        ctx.set_timer(GAP_TIMER, 5 * self.delta)

    def on_message(self, ctx: Context, sender: ProcessId, message: Message) -> None:
        if self.omega.handle_message(ctx, sender, message):
            return
        if isinstance(message, SubmitCommand):
            self.submit(ctx, message.command, trace_id=message.trace_id or None)
        elif isinstance(message, Slotted):
            slot = message.slot
            if slot < self.applied_upto and slot not in self._slots:
                # The slot was applied and its machinery truncated away
                # (snapshot/restore): this is a straggler or a re-sent
                # burst for settled history. Recreating the instance would
                # re-run a finished race for nothing.
                ctx.obs.registry.inc("smr.stale_slot_msgs")
                return
            self._drop_applied_bodies()
            inbound = self._inbound(ctx, slot, sender, message.inner)
            if inbound is not None:
                inner = self._slot(ctx, slot)
                inner.on_message(_SlotContext(ctx, self, slot), sender, inbound)

    def on_timer(self, ctx: Context, name: str) -> None:
        if self.omega.handle_timer(ctx, name):
            return
        if name == GAP_TIMER:
            ctx.set_timer(GAP_TIMER, 5 * self.delta)
            self._drop_applied_bodies()
            self._repair_gaps(ctx)
            return
        if name.startswith(SLOT_TIMER_PREFIX):
            slot_text, _, inner_name = name[len(SLOT_TIMER_PREFIX):].partition(":")
            slot = int(slot_text)
            if slot < self.applied_upto and slot not in self._slots:
                return  # timer outlived its truncated slot
            inner = self._slot(ctx, slot)
            inner.on_timer(_SlotContext(ctx, self, slot), inner_name)

    # ------------------------------------------------------------------
    # One body per slot: references out, bodies back in.
    # ------------------------------------------------------------------

    def _hold(self, slot: int, body: CommandBatch) -> _HeldBody:
        held = self._bodies.setdefault(slot, {})
        entry = held.get(body.ref)
        if entry is None:
            entry = held[body.ref] = _HeldBody(body, {self.pid})
        return entry

    def _drop_applied_bodies(self) -> None:
        # Runs when an activation starts, not when a slot is applied:
        # Figure 1 broadcasts Decide *after* ctx.decide() returns, and
        # that send still needs to know who holds the body.
        if self._bodies:
            for slot in [s for s in self._bodies if s < self.applied_upto]:
                del self._bodies[slot]

    def _resolve(self, slot: int, ref: BatchRef) -> Optional[CommandBatch]:
        entry = self._bodies.get(slot, {}).get(ref)
        if entry is not None:
            return entry.body
        decided = self.decided.get(slot)
        if decided is not None and decided.ref == ref:
            return decided  # applied: the table let go, the log has not
        return None

    def _note_holders(
        self, slot: int, message: Message, holders: Iterable[ProcessId]
    ) -> None:
        """Record that *holders* hold every batch body *message* carries."""
        for field in _BODY_FIELDS.get(type(message), ()):
            body = getattr(message, field)
            if type(body) is CommandBatch:
                self._hold(slot, body).holders.update(holders)

    def _by_reference(
        self, slot: int, message: Message, targets: Sequence[ProcessId]
    ) -> Tuple[Message, Sequence[ProcessId]]:
        """*message* with its batch replaced by a reference, and the
        *targets* that get that form; ``(message, ())`` when none does.

        A target holds a body once it sent it to me or I sent it to it
        in full; every target is recorded as a holder here, because each
        gets either the reference (it held the body) or the body itself.
        """
        if type(message) in _BY_REFERENCE:
            holders = self._hold(slot, message.value).holders
            knowers = [dst for dst in targets if dst in holders]
            holders.update(targets)
            if knowers:
                return _with_value(message, message.value.ref), knowers
        else:
            self._note_holders(slot, message, targets)
        return message, ()

    def _inbound(
        self, ctx: Context, slot: int, sender: ProcessId, message: Message
    ) -> Optional[Message]:
        """The inner message as Figure 1 should see it, or ``None``.

        Notes which bodies *sender* evidently holds and resolves a
        reference to the held object. An unresolvable reference is not
        waited for — links may reorder, so the body may never come: the
        vote is dropped, the decision is asked for again in full.
        """
        kind = type(message)
        if kind is BodyRequest:
            decided = self.decided.get(slot)
            if decided is not None and decided.ref == message.ref:
                ctx.send(sender, Slotted(slot, Decide(decided)))
            return None
        if kind in _BY_REFERENCE and type(message.value) is BatchRef:
            body = self._resolve(slot, message.value)
            if body is None:
                ctx.obs.registry.inc("smr.body_misses")
                if kind is Decide:
                    ctx.send(sender, Slotted(slot, BodyRequest(message.value)))
                return None
            return _with_value(message, body)
        self._note_holders(slot, message, (sender,))
        return message

    # ------------------------------------------------------------------
    # The proxy role.
    # ------------------------------------------------------------------

    def submit(
        self, ctx: Context, command: KVCommand, trace_id: Optional[str] = None
    ) -> None:
        """Accept a client command; propose it as soon as a slot is free."""
        if not command.command_id:
            raise ConfigurationError("commands need a unique command_id")
        self.submissions.setdefault(command.command_id, ctx.now)
        if trace_id and ctx.obs.spans.enabled:
            self.pending_traces[command.command_id] = trace_id
        self._queue.append(command)
        self._try_propose(ctx)

    def _try_propose(self, ctx: Context) -> None:
        # Up to ``window`` of my slots may be undecided at once (the
        # original one-in-flight discipline is window=1); each proposal
        # carries up to ``batch_size`` queued commands.
        while self._queue:
            open_slots = sum(1 for slot in self._inflight if slot not in self.decided)
            if open_slots >= self.window:
                return
            picked: list = []
            while self._queue and len(picked) < self.batch_size:
                command = self._queue.popleft()
                if command.command_id in self.commit_times:
                    continue  # already decided via another slot
                picked.append(command)
            if not picked:
                return
            value = CommandBatch(
                tuple(picked), batch_id=f"__batch:{self.pid}:{self._batch_seq}__"
            )
            self._batch_seq += 1
            slot = self._find_free_slot()
            inner = self._slot(ctx, slot)
            inner.propose(_SlotContext(ctx, self, slot), value)
            if inner.initial_val == value:
                self._inflight[slot] = value
                self._slot_proposed.setdefault(slot, ctx.now)
                self._trace_seal(ctx, slot, picked)
            else:
                # Refused (slot already voted); retry on the next decide.
                for command in reversed(picked):
                    self._queue.appendleft(command)
                return

    def _trace_seal(self, ctx: Context, slot: int, picked: list) -> None:
        """Stage accounting + trace adoption at batch seal (proxy-side).

        ``stage.queue_seconds`` (submit → seal) is always on — one
        histogram observe per command, same budget class as
        ``smr.commit_seconds``. Span work only runs when the node
        records spans: the slot adopts the first client-stamped trace
        among the sealed commands, else the sampler may mint one.
        """
        now = ctx.now
        registry = ctx.obs.registry
        for command in picked:
            submitted = self.submissions.get(command.command_id)
            if submitted is not None:
                registry.observe("stage.queue_seconds", now - submitted)
        spans = ctx.obs.spans
        if not spans.enabled:
            return
        trace_id = None
        for command in picked:
            adopted = self.pending_traces.pop(command.command_id, None)
            if adopted and trace_id is None:
                trace_id = adopted
        if trace_id is None:
            trace_id = spans.maybe_sample(self.pid, slot)
        if trace_id is None:
            return
        self.slot_traces[slot] = trace_id
        for command in picked:
            self.command_traces[command.command_id] = trace_id
            submitted = self.submissions.get(command.command_id)
            if submitted is not None:
                # Retroactive: the submit instant is known, the decision
                # to trace was only just made at seal.
                spans.record(trace_id, "submit", submitted, command=command.command_id)
        spans.record(trace_id, "seal", now, slot=slot, commands=len(picked))

    def _find_free_slot(self) -> Optional[int]:
        slot = self.applied_upto
        while True:
            if slot in self.decided:
                slot += 1
                continue
            inner = self._slots.get(slot)
            if inner is None:
                return slot
            if is_bottom(inner.val) and is_bottom(inner.initial_val) and is_bottom(
                inner.decided
            ):
                return slot
            slot += 1

    # ------------------------------------------------------------------
    # Slot lifecycle.
    # ------------------------------------------------------------------

    def _slot(self, ctx: Context, slot: int) -> TwoStepProcess:
        self.dirty_slots.add(slot)
        if slot not in self._slots:
            inner = TwoStepProcess(
                self.pid, self.n, self.config, omega=_SharedOmega(self.omega)
            )
            self._slots[slot] = inner
            inner.on_start(_SlotContext(ctx, self, slot))
        return self._slots[slot]

    def _on_slot_decided(self, ctx: Context, slot: int, decided: CommandBatch) -> None:
        if slot in self.decided:
            return
        now = ctx.now
        self.decided[slot] = decided
        self.dirty_slots.add(slot)
        self.decide_times[slot] = now
        inner = self._slots.get(slot)
        path = getattr(inner, "decided_path", None) or PATH_LEARNED
        proposed = self._slot_proposed.get(slot)
        slot_latency = (now - proposed) if proposed is not None else None
        self.decision_log[slot] = decision_record(
            slot=slot,
            path=path,
            ballot=getattr(inner, "decided_ballot", None),
            value_id=decided.batch_id,
            latency_seconds=slot_latency,
            decided_at=now,
        )
        registry = ctx.obs.registry
        registry.inc("smr.slots_decided")
        if slot_latency is not None:
            # Seal → decide at the proposer: the consensus stage proper,
            # split by path so 2Δ sits next to the recovery rule's cost.
            registry.observe("stage.consensus_seconds", slot_latency)
            registry.observe(f"stage.consensus_seconds.{path}", slot_latency)
        trace_id = self.slot_traces.get(slot)
        if trace_id is not None:
            ctx.obs.spans.record(
                trace_id,
                "decide",
                now,
                slot=slot,
                path=path,
                ballot=getattr(inner, "decided_ballot", None),
            )
        for command in decided.commands:
            if command.command_id:
                self.commit_times.setdefault(command.command_id, now)
                submitted = self.submissions.get(command.command_id)
                if submitted is not None:
                    # Proxy-observed commit latency, split by decision path
                    # so the 2Δ fast path is visible next to recovery.
                    latency = now - submitted
                    registry.observe("smr.commit_seconds", latency)
                    registry.observe(f"smr.commit_seconds.{path}", latency)
        mine = self._inflight.pop(slot, None)
        if mine is not None and mine != decided:
            # Lost the slot race: put my uncommitted commands back at the
            # front, preserving their submission order.
            for command in reversed(mine.commands):
                if command.command_id not in self.commit_times:
                    self._queue.appendleft(command)
        self._apply_ready(ctx)
        self._try_propose(ctx)

    def _apply_ready(self, ctx: Context) -> None:
        now = ctx.now
        submissions, results = self.submissions, self.results
        while self.applied_upto in self.decided:
            slot = self.applied_upto
            for command in self.decided[slot].commands:
                result = self.store.apply(command)
                command_id = command.command_id
                if command_id in submissions and command_id not in results:
                    results[command_id] = (result, now)
                    self.finished.append(command_id)
            decided_at = self.decide_times.get(slot, 0.0)
            if decided_at:
                # decide → apply; zero for slots applied in the deciding
                # activation, the in-order wait for out-of-order decides.
                # Restored slots (decide time 0.0) are skipped.
                ctx.obs.registry.observe("stage.apply_seconds", now - decided_at)
            trace_id = self.slot_traces.get(slot)
            if trace_id is not None:
                ctx.obs.spans.record(trace_id, "apply", now, slot=slot)
            self.applied_upto += 1

    # ------------------------------------------------------------------
    # Durability seams (used by repro.storage; no Context required).
    # ------------------------------------------------------------------

    def restore_store(self, state: Dict[str, Any], applied_upto: int) -> None:
        """Adopt a snapshot's store and applied frontier wholesale.

        Safe whenever *state* comes from a replica whose frontier is at or
        beyond ours: decided logs are prefix-consistent, so the incoming
        applied log extends the local one.
        """
        self.store = KVStore.from_state(state)
        self.applied_upto = applied_upto

    def restore_decided(self, slot: int, value: CommandBatch) -> bool:
        """Re-learn a decided slot offline (WAL replay / state transfer).

        Applies any newly-ready prefix. Returns ``False`` for slots that
        are already decided or below the applied frontier, which makes
        replaying a WAL segment that predates the loaded snapshot a
        harmless no-op.
        """
        if slot < self.applied_upto or slot in self.decided:
            return False
        self.decided[slot] = value
        self.dirty_slots.add(slot)
        self.decide_times.setdefault(slot, 0.0)
        for command in value.commands:
            if command.command_id:
                self.commit_times.setdefault(command.command_id, 0.0)
        self._inflight.pop(slot, None)
        while self.applied_upto in self.decided:
            for command in self.decided[self.applied_upto].commands:
                self.store.apply(command)
            self.applied_upto += 1
        return True

    def restore_slot_state(self, slot: int, state: PersistedSlotState) -> bool:
        """Restore one undecided slot from its journaled projection.

        *state* is what :func:`~repro.protocols.twostep.persisted_slot_state`
        took of the slot's consensus instance before the crash; the
        instance is rebuilt from it, the bodies it names are held, and an
        own proposal goes back in flight. ``on_start`` is deliberately not
        run (there is no live Context during replay); the slot wakes up on
        the first inbound message or gap-repair pass.
        """
        if slot < self.applied_upto or slot in self.decided:
            return False
        inner = self._slots.get(slot)
        if inner is None:
            inner = TwoStepProcess(
                self.pid, self.n, self.config, omega=_SharedOmega(self.omega)
            )
            self._slots[slot] = inner
        restore_persisted_slot_state(inner, state)
        for body in (inner.val, inner.initial_val):
            if type(body) is CommandBatch:
                # A vote that comes back for this slot names the body.
                self._hold(slot, body)
        if not is_bottom(inner.initial_val):
            self._inflight.setdefault(slot, inner.initial_val)
            self._slot_proposed.setdefault(slot, 0.0)
        return True

    def open_slot_states(
        self, among: Optional[Iterable[int]] = None
    ) -> Iterable[Tuple[int, PersistedSlotState]]:
        """``(slot, projection)`` of each open slot — hosted, not decided —
        among *among* (default: every hosted slot), in slot order."""
        slots, decided = self._slots, self.decided
        for slot in sorted(slots if among is None else among):
            inner = slots.get(slot)
            if inner is not None and slot not in decided:
                yield slot, persisted_slot_state(inner)

    def truncate_below(self, slot: int) -> int:
        """Drop per-slot machinery below *slot* (capped at the frontier).

        Called after a snapshot covers the applied prefix: the decided
        map, inner instances, and proposal bookkeeping for applied slots
        only serve stragglers, which ``on_message`` now drops. In-flight
        commands of truncated slots that never committed are re-queued —
        the slot race they were losing is settled, so they belong in a
        fresh slot. The in-memory ``store.log`` is *not* truncated: it is
        the convergence witness; bounding it is the durable artifacts'
        job. Returns the number of slots dropped.
        """
        slot = min(slot, self.applied_upto)
        removed = 0
        for stale in [s for s in self.decided if s < slot]:
            del self.decided[stale]
            self.decide_times.pop(stale, None)
            removed += 1
        for stale in [s for s in self._slots if s < slot]:
            del self._slots[stale]
            self._slot_proposed.pop(stale, None)
            mine = self._inflight.pop(stale, None)
            if mine is not None:
                for command in reversed(mine.commands):
                    if (
                        command.command_id not in self.commit_times
                        and command.command_id not in self.store.applied_ids
                    ):
                        self._queue.appendleft(command)
        for stale in [s for s in self.slot_traces if s < slot]:
            del self.slot_traces[stale]
        for stale in [s for s in self._bodies if s < slot]:
            del self._bodies[stale]
        self.dirty_slots = {s for s in self.dirty_slots if s >= slot}
        return removed

    # ------------------------------------------------------------------
    # Gap repair.
    # ------------------------------------------------------------------

    def _repair_gaps(self, ctx: Context) -> None:
        """Ω leader flushes stuck slots below the decided frontier.

        A slot can linger when its proxy crashed mid-propose: replicas
        that saw nothing of it would wait forever. The leader proposes a
        no-op there; the consensus instance then either recovers the
        original command (its recovery rule prefers reported inputs and
        votes) or decides the no-op — either way the log unblocks.
        """
        if self.omega.leader(ctx.now) != self.pid:
            return
        known = set(self.decided) | set(self._slots)
        if not known:
            return
        horizon = max(known)
        for slot in range(self.applied_upto, horizon + 1):
            if slot in self.decided:
                continue
            inner = self._slot(ctx, slot)
            if is_bottom(inner.initial_val) and is_bottom(inner.decided):
                noop_id = f"__noop:{self.pid}:{slot}__"
                noop = KVCommand(op="noop", key="", command_id=noop_id)
                filler = CommandBatch((noop,), batch_id=noop_id)
                ctx.obs.registry.inc("smr.gap_repair_noops")
                inner.propose(_SlotContext(ctx, self, slot), filler)
                self._slot_proposed.setdefault(slot, ctx.now)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def committed_log(self) -> Dict[int, CommandBatch]:
        return dict(self.decided)

    def commit_latency(self, command_id: str) -> Optional[float]:
        """Proxy-observed commit latency of one of *this* proxy's commands."""
        if command_id not in self.submissions or command_id not in self.commit_times:
            return None
        return self.commit_times[command_id] - self.submissions[command_id]

    def decision_records(self) -> list:
        """JSON-safe per-slot decision records (tagged fast/slow/learned).

        Both runtimes ship these in stats snapshots under ``"decisions"``;
        :func:`repro.obs.merge_decision_records` folds them cluster-wide.
        """
        return [self.decision_log[slot] for slot in sorted(self.decision_log)]


def smr_factory(
    f: int,
    e: int,
    delta: float = 1.0,
    omega_factory: Optional[OmegaFactory] = None,
    consensus_config: Optional[TwoStepConfig] = None,
    batch_size: int = 1,
    window: int = 1,
) -> ProcessFactory:
    """Factory for a replicated KV service over Figure 1 (object variant)."""

    def build(pid: ProcessId, n: int) -> SMRReplica:
        omega = omega_factory(pid, n) if omega_factory is not None else None
        return SMRReplica(
            pid,
            n,
            f,
            e,
            delta=delta,
            omega=omega,
            consensus_config=consensus_config,
            batch_size=batch_size,
            window=window,
        )

    return build
