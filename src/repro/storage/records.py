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
* ``WalSlotState`` — one slot's ballot/vote state (``bal``, ``vbal``,
  ``val``, ``initial_val``) plus the ballots this node already coordinated
  a ``TwoA`` for. Forgetting a vote (or a sent ``TwoA``) and then acting
  incompatibly at the same ballot is the classic amnesia violation;
  re-journaling on every change prevents it. Received-vote tallies are
  deliberately *not* journaled — losing them only delays a decision, and
  re-delivered messages rebuild them (vote sets are idempotent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from ..core.messages import Message


@dataclass(frozen=True)
class WalDecision(Message):
    """Slot *slot* decided *value* (a ``KVCommand`` or ``CommandBatch``)."""

    slot: int
    value: Any


@dataclass(frozen=True)
class WalSlotState(Message):
    """One undecided slot's safety-critical consensus state."""

    slot: int
    bal: int
    vbal: int
    value: Any  # the vote (TwoStepProcess.val); BOTTOM when unvoted
    initial_value: Any  # own proposal; BOTTOM when none
    sent_twoa: Tuple[int, ...] = ()  # ballots this node coordinated


def encode_record(codec: Any, record: Message) -> bytes:
    """Serialize *record* into a WAL payload (codec frame payload shape)."""
    return codec.encode_payload(record)


def decode_record(codec: Any, payload: bytes) -> Message:
    """Inverse of :func:`encode_record`; raises ``CodecError`` on garbage."""
    return codec.decode_payload(payload)


__all__ = ["WalDecision", "WalSlotState", "decode_record", "encode_record"]
