"""The arena: fully adversarial, step-by-step controlled execution.

Where :class:`repro.sim.simulation.Simulation` picks the schedule from a
latency model, the :class:`Arena` hands the schedule to the caller: every
sent message parks in a pending pool until the caller delivers it (or
never does — in the asynchronous model, indefinite delay is the
adversary's prerogative), crashes happen exactly when asked, and timers
fire when the caller fires them.

This is the substrate on which the Appendix B lower-bound constructions are
executed: they splice prefixes of two synchronous runs by delivering, to
each group of processes, exactly the messages that group would have seen in
its own run, then crash the processes that could tell the difference.
Because protocol processes are deterministic, reproducing a run's inputs
reproduces its steps — the arena makes "processes in ``E₁ ∪ F₀`` execute
the same first two steps they execute in σ" an executable statement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.errors import SchedulerError
from ..core.messages import Message
from ..core.process import CLIENT, Context, Process, ProcessFactory, ProcessId
from ..core.runs import (
    CrashRecord,
    DecideRecord,
    DeliverRecord,
    Run,
    SendRecord,
    TimerFiredRecord,
    TimerSetRecord,
)
from ..core.values import MaybeValue

#: Steps :meth:`Arena.settle` takes before it gives up on a continuation.
SETTLE_MAX_STEPS = 100_000


@dataclass
class PendingMessage:
    """A sent-but-not-yet-delivered message in the arena's pool."""

    uid: int
    sender: ProcessId
    receiver: ProcessId
    message: Message
    send_time: float

    def __repr__(self) -> str:
        return (
            f"<msg #{self.uid} p{self.sender}->p{self.receiver} "
            f"{self.message.describe()} @t={self.send_time}>"
        )


class _ArenaContext(Context):
    def __init__(self, arena: "Arena", pid: ProcessId) -> None:
        self._arena = arena
        self._pid = pid

    @property
    def now(self) -> float:
        return self._arena.time

    @property
    def pid(self) -> ProcessId:
        return self._pid

    @property
    def n(self) -> int:
        return self._arena.n

    def send(self, dst: ProcessId, message: Message) -> None:
        self._arena._record_send(self._pid, dst, message)

    def set_timer(self, name: str, delay: float) -> None:
        self._arena._set_timer(self._pid, name, delay)

    def cancel_timer(self, name: str) -> None:
        self._arena._cancel_timer(self._pid, name)

    def decide(self, value: MaybeValue) -> None:
        self._arena._decide(self._pid, value)


class Arena:
    """Adversarially controlled execution of *n* processes.

    The caller drives everything: :meth:`start`, :meth:`deliver`,
    :meth:`crash`, :meth:`fire_timer`, :meth:`advance_to`. The
    :meth:`settle` helper finishes a partial run fairly (the ``f``-resilient
    continuation every lower-bound argument appeals to).
    """

    def __init__(
        self,
        factory: ProcessFactory,
        n: int,
        proposals: Optional[Mapping[ProcessId, MaybeValue]] = None,
    ) -> None:
        self.n = n
        self.time = 0.0
        self.processes: List[Process] = [factory(pid, n) for pid in range(n)]
        self.run_record = Run(n, dict(proposals or {}))
        self.pending: Dict[int, PendingMessage] = {}
        self._uid_counter = itertools.count()
        self._timers: Dict[Tuple[ProcessId, str], float] = {}
        self.crashed: set = set()
        self.started: set = set()

    # ------------------------------------------------------------------
    # Clock.
    # ------------------------------------------------------------------

    def advance_to(self, time: float) -> None:
        """Move the clock forward (records get the new timestamp)."""
        if time < self.time:
            raise SchedulerError(f"cannot rewind clock from {self.time} to {time}")
        self.time = time

    # ------------------------------------------------------------------
    # Process control.
    # ------------------------------------------------------------------

    def start(self, pid: ProcessId) -> None:
        """Run *pid*'s start-up activation."""
        self._require_live(pid)
        if pid in self.started:
            raise SchedulerError(f"process {pid} already started")
        self.started.add(pid)
        self.processes[pid].on_start(_ArenaContext(self, pid))

    def start_all(self, skip: Iterable[ProcessId] = ()) -> None:
        """Start every non-crashed process not in *skip*, in pid order."""
        skipped = set(skip)
        for pid in range(self.n):
            if pid in skipped or pid in self.crashed or pid in self.started:
                continue
            self.start(pid)

    def crash(self, pid: ProcessId) -> None:
        """Crash *pid* now; it takes no further steps.

        Its already-sent messages stay deliverable (reliable links,
        crash-stop model); messages addressed to it become permanently
        undeliverable and are discarded from the pool.
        """
        if pid in self.crashed:
            return
        self.crashed.add(pid)
        self.run_record.add(CrashRecord(time=self.time, pid=pid))
        for uid in [u for u, pm in self.pending.items() if pm.receiver == pid]:
            del self.pending[uid]
        for key in [k for k in self._timers if k[0] == pid]:
            del self._timers[key]

    def crash_many(self, pids: Iterable[ProcessId]) -> None:
        for pid in sorted(set(pids)):
            self.crash(pid)

    # ------------------------------------------------------------------
    # Message control.
    # ------------------------------------------------------------------

    def inject(self, pid: ProcessId, message: Message, sender: ProcessId = CLIENT) -> int:
        """Add an external (client) message to the pool; returns its uid."""
        uid = next(self._uid_counter)
        self.pending[uid] = PendingMessage(
            uid=uid, sender=sender, receiver=pid, message=message, send_time=self.time
        )
        return uid

    def pending_messages(
        self,
        receiver: Optional[ProcessId] = None,
        sender: Optional[ProcessId] = None,
        kind: Optional[type] = None,
        senders: Optional[Iterable[ProcessId]] = None,
    ) -> List[PendingMessage]:
        """Snapshot of the pool matching the filters, in uid (send) order."""
        sender_set = set(senders) if senders is not None else None
        matches = []
        for uid in sorted(self.pending):
            pm = self.pending[uid]
            if receiver is not None and pm.receiver != receiver:
                continue
            if sender is not None and pm.sender != sender:
                continue
            if sender_set is not None and pm.sender not in sender_set:
                continue
            if kind is not None and not isinstance(pm.message, kind):
                continue
            matches.append(pm)
        return matches

    def pending_list(self) -> List[PendingMessage]:
        """Unfiltered pool snapshot in uid (send) order, without sorting.

        Uids are handed out by a single monotone counter and entries are
        inserted in uid order, so dict insertion order *is* uid order —
        this returns exactly what ``pending_messages()`` would, minus the
        per-call sort. Hot-path accessor for the fuzzer.
        """
        return list(self.pending.values())

    def deliver(self, pending: PendingMessage) -> None:
        """Deliver one pending message; runs the receiver's handler."""
        if pending.uid not in self.pending:
            raise SchedulerError(f"message {pending!r} is not pending")
        self._require_live(pending.receiver)
        del self.pending[pending.uid]
        self.run_record.add(
            DeliverRecord(
                time=self.time,
                sender=pending.sender,
                receiver=pending.receiver,
                message=pending.message,
            )
        )
        self.processes[pending.receiver].on_message(
            _ArenaContext(self, pending.receiver), pending.sender, pending.message
        )

    def deliver_where(
        self,
        receiver: Optional[ProcessId] = None,
        sender: Optional[ProcessId] = None,
        kind: Optional[type] = None,
        senders: Optional[Iterable[ProcessId]] = None,
    ) -> int:
        """Deliver every currently pending message matching the filters.

        Messages sent *during* these deliveries stay pending (one network
        step at a time — exactly the granularity of a proof round).
        Returns the number delivered.
        """
        batch = self.pending_messages(
            receiver=receiver, sender=sender, kind=kind, senders=senders
        )
        for pm in batch:
            if pm.uid in self.pending and pm.receiver not in self.crashed:
                self.deliver(pm)
        return len(batch)

    def deliver_round(self, prefer_sender_first: Optional[ProcessId] = None) -> int:
        """Deliver, to each live receiver, everything currently pending for it.

        This is one synchronous round: all in-flight messages land, new
        sends wait for the next call. *prefer_sender_first* orders each
        receiver's batch with that sender's messages first (the Definition 4
        existence knob).
        """
        snapshot = self.pending_messages()
        if prefer_sender_first is not None:
            snapshot.sort(key=lambda pm: (pm.sender != prefer_sender_first, pm.uid))
        count = 0
        for pm in snapshot:
            if pm.uid in self.pending and pm.receiver not in self.crashed:
                self.deliver(pm)
                count += 1
        return count

    # ------------------------------------------------------------------
    # Timer control.
    # ------------------------------------------------------------------

    def timers(self) -> List[Tuple[ProcessId, str, float]]:
        """Armed timers as ``(pid, name, deadline)``, soonest first."""
        entries = [(pid, name, deadline) for (pid, name), deadline in self._timers.items()]
        return sorted(entries, key=lambda item: (item[2], item[0], item[1]))

    def armed_timers(self) -> List[Tuple[ProcessId, str]]:
        """Armed timer keys ``(pid, name)`` in arming order, without the
        deadline sort.

        Deterministic (dict insertion order) but *not* soonest-first; use
        :meth:`timers` when deadline order matters. Crashed processes never
        appear (``crash`` disarms their timers). Hot-path accessor for the
        fuzzer, which picks timers at random anyway.
        """
        return list(self._timers)

    def has_armed_timers(self) -> bool:
        """O(1) check whether any timer is armed."""
        return bool(self._timers)

    def fire_timer(self, pid: ProcessId, name: str) -> None:
        """Fire an armed timer (the adversary controls time, so any armed
        timer may fire 'now'), advancing the clock to its deadline if that
        is later."""
        self._require_live(pid)
        key = (pid, name)
        if key not in self._timers:
            raise SchedulerError(f"no timer {name!r} armed at process {pid}")
        deadline = self._timers.pop(key)
        if deadline > self.time:
            self.time = deadline
        self.run_record.add(TimerFiredRecord(time=self.time, pid=pid, name=name))
        self.processes[pid].on_timer(_ArenaContext(self, pid), name)

    # ------------------------------------------------------------------
    # Fair completion.
    # ------------------------------------------------------------------

    def settle(self, targets: Optional[Iterable[ProcessId]] = None) -> Run:
        """Finish the run fairly: the f-resilient continuation.

        Alternates between flushing all deliverable messages and firing the
        soonest armed timer, until every live process in *targets*
        (default: all live processes) has decided, or nothing remains to
        do. This realizes "since P is f-resilient, there exists a
        continuation of σ where processes decide".
        """
        live_targets = lambda: {  # noqa: E731
            pid
            for pid in (targets if targets is not None else range(self.n))
            if pid not in self.crashed
        }
        for _ in range(SETTLE_MAX_STEPS):
            if all(
                self.run_record.decision_time(pid) is not None for pid in live_targets()
            ):
                return self.run_record
            if self.pending_messages():
                self.deliver_round()
                continue
            armed = self.timers()
            armed = [entry for entry in armed if entry[0] not in self.crashed]
            if not armed:
                return self.run_record  # quiescent without full decision
            pid, name, _deadline = armed[0]
            self.fire_timer(pid, name)
        raise SchedulerError(f"settle() did not converge within {SETTLE_MAX_STEPS} steps")

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def decided_value(self, pid: ProcessId) -> MaybeValue:
        return self.run_record.decided_value(pid)

    def has_decided(self, pid: ProcessId) -> bool:
        return self.run_record.decision_time(pid) is not None

    # ------------------------------------------------------------------
    # Context callbacks.
    # ------------------------------------------------------------------

    def _require_live(self, pid: ProcessId) -> None:
        if not 0 <= pid < self.n:
            raise SchedulerError(f"unknown process {pid}")
        if pid in self.crashed:
            raise SchedulerError(f"process {pid} is crashed")

    def _record_send(self, sender: ProcessId, receiver: ProcessId, message: Message) -> None:
        if not 0 <= receiver < self.n:
            raise SchedulerError(f"send to unknown process {receiver}")
        self.run_record.add(
            SendRecord(time=self.time, sender=sender, receiver=receiver, message=message)
        )
        if receiver in self.crashed:
            return  # permanently undeliverable
        uid = next(self._uid_counter)
        self.pending[uid] = PendingMessage(
            uid=uid, sender=sender, receiver=receiver, message=message, send_time=self.time
        )

    def _set_timer(self, pid: ProcessId, name: str, delay: float) -> None:
        deadline = self.time + delay
        self._timers[(pid, name)] = deadline
        self.run_record.add(
            TimerSetRecord(time=self.time, pid=pid, name=name, deadline=deadline)
        )

    def _cancel_timer(self, pid: ProcessId, name: str) -> None:
        self._timers.pop((pid, name), None)

    def _decide(self, pid: ProcessId, value: MaybeValue) -> None:
        self.run_record.add(DecideRecord(time=self.time, pid=pid, value=value))
