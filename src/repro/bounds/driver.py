"""Shared machinery for executing the Appendix B run constructions.

The lower-bound proofs manipulate runs at the granularity of *rounds of a
group of processes*: "processes in ``E₁ ∪ F₀`` execute the same first two
steps they execute in σ". On the :class:`repro.sim.arena.Arena` this
becomes: start exactly that group, then deliver to each member exactly the
messages its reference run delivered, in a fixed deterministic order.

Two ordering rules keep spliced runs literally indistinguishable (equal
local record sequences) to the surviving processes across the paired
constructions:

* same-round deliveries are ordered by ``(preferred-sender-first, sender
  id, message sort key)`` — never by arrival (send order differs between
  the paired runs);
* the f-resilient continuation delivers only messages whose *sender* is
  still alive, in the same canonical order; messages from crashed
  processes (a dead proposer's ``Decide``, stale ``Propose`` s) stay
  withheld, which asynchrony permits.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Set

from ..core.errors import SchedulerError
from ..core.messages import message_sort_key
from ..core.process import ProcessId
from ..protocols.twostep import TwoStepConfig
from ..sim.arena import Arena, PendingMessage

#: One round of a construction: the protocol's default ``Δ``.
DELTA = TwoStepConfig.delta
#: Rounds :func:`drive_continuation` drives before it gives up.
CONTINUATION_MAX_ITERATIONS = 200


def canonical_order(prefer: Optional[ProcessId] = None):
    """Deterministic, run-independent delivery order for a message batch."""

    def key(pm: PendingMessage):
        preferred = 0 if prefer is not None and pm.sender == prefer else 1
        return (preferred, pm.sender, pm.receiver, message_sort_key(pm.message), pm.uid)

    return key


def deliver_batch(
    arena: Arena,
    receivers: Iterable[ProcessId],
    senders: Iterable[ProcessId],
    kind: Optional[type] = None,
    prefer: Optional[ProcessId] = None,
) -> int:
    """Deliver every pending *kind* message from *senders* to *receivers*.

    Messages produced during these deliveries are left pending (the round
    boundary of the proofs). Returns the number delivered.
    """
    receiver_set = set(receivers)
    sender_set = set(senders)
    batch = [
        pm
        for pm in arena.pending_messages(kind=kind)
        if pm.receiver in receiver_set and pm.sender in sender_set
    ]
    batch.sort(key=canonical_order(prefer))
    delivered = 0
    for pm in batch:
        if pm.uid in arena.pending and pm.receiver not in arena.crashed:
            arena.deliver(pm)
            delivered += 1
    return delivered


def drive_continuation(
    arena: Arena, live: Sequence[ProcessId], ballot_timer: str
) -> Optional[ProcessId]:
    """The f-resilient continuation: run the live processes to a decision.

    Alternates between flushing all live-to-live messages (canonical
    order) and firing the leader's ballot timer, never delivering anything
    sent by a crashed process. Returns the pid of the first live process
    to decide, or ``None`` if the continuation quiesces undecided.
    """
    live_set: Set[ProcessId] = set(live) - arena.crashed
    if not live_set:
        return None
    leader = min(live_set)

    def first_decider() -> Optional[ProcessId]:
        times = [
            (arena.run_record.decision_time(pid), pid)
            for pid in live_set
            if arena.run_record.decision_time(pid) is not None
        ]
        return min(times)[1] if times else None

    for _ in range(CONTINUATION_MAX_ITERATIONS):
        decider = first_decider()
        if decider is not None:
            return decider
        batch = [
            pm
            for pm in arena.pending_messages()
            if pm.sender in live_set and pm.receiver in live_set
        ]
        if batch:
            batch.sort(key=canonical_order())
            for pm in batch:
                if pm.uid in arena.pending:
                    arena.deliver(pm)
            continue
        armed = {(pid, name) for pid, name, _ in arena.timers()}
        if (leader, ballot_timer) in armed:
            arena.fire_timer(leader, ballot_timer)
            continue
        # Leader's timer consumed and nothing in flight: give every other
        # live process's timer a chance before giving up.
        fired = False
        for pid in sorted(live_set):
            if (pid, ballot_timer) in {(p, nm) for p, nm, _ in arena.timers()}:
                arena.fire_timer(pid, ballot_timer)
                fired = True
                break
        if not fired:
            return first_decider()
    raise SchedulerError(
        f"continuation did not converge within {CONTINUATION_MAX_ITERATIONS} iterations"
    )
