"""Typed WAL records and their byte-level encoding.

The WAL itself (:mod:`repro.storage.wal`) frames opaque byte payloads;
this module gives those payloads meaning. Records are frozen dataclasses
deriving from :class:`~repro.core.messages.Message` so the one wire
codec/registry covers them — a WAL payload is exactly a frame payload
(version byte + binary v2 body), which buys version checking and
`BOTTOM` / tuple / nested-dataclass fidelity for free.
``repro.net.codec.default_registry`` imports this module, so any codec
built there can decode a WAL written under the same registry; recovery
refuses a directory stamped with another
(:meth:`~repro.storage.recovery.NodeStorage.stamp_problem`).

Only state that **safety** depends on is journaled:

* ``WalDecision`` — a slot's decided value. Must be durable before the
  decision is externalized (applied, replied to a client, broadcast).
* ``WalSlotState`` — one open slot's consensus state: the projection
  :func:`repro.protocols.twostep.persisted_slot_state` returns, field for
  field, after the slot number. That function is the one list of what a
  restarted node gets back, and its docstring says what is deliberately
  left out (``proposer``, vote tallies, ``1B`` reports, ``decided_path``)
  and why. Forgetting a vote (or a sent ``TwoA``) and then acting
  incompatibly at the same ballot is the classic amnesia violation;
  re-journaling on every change prevents it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Tuple

from ..core.messages import Message


@dataclass(frozen=True)
class WalDecision(Message):
    """Slot *slot* decided *value*: a ``CommandBatch``, or the ``BatchRef``
    of one journaled earlier in the same segment."""

    slot: int
    value: Any


@dataclass(frozen=True)
class WalSlotState(Message):
    """One open slot: *slot*, then the slot's persisted projection in its
    order (:func:`~repro.protocols.twostep.persisted_slot_state`)."""

    slot: int
    bal: int
    vbal: int
    value: Any  # the vote (TwoStepProcess.val); BOTTOM when unvoted
    initial_value: Any  # own proposal; BOTTOM when none
    sent_twoa: Tuple[int, ...] = ()  # ballots this node coordinated

    @property
    def state(self) -> Tuple[Any, ...]:
        """The journaled projection: every field after ``slot``."""
        return tuple(getattr(self, f.name) for f in fields(self)[1:])


def encode_record(codec: Any, record: Message) -> bytes:
    """Serialize *record* into a WAL payload (codec frame payload shape)."""
    return codec.encode_payload(record)


def decode_record(codec: Any, payload: bytes) -> Message:
    """Inverse of :func:`encode_record`; raises ``CodecError`` on garbage."""
    return codec.decode_payload(payload)


__all__ = ["WalDecision", "WalSlotState", "decode_record", "encode_record"]
