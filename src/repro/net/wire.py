"""Runtime-level wire vocabulary: handshakes and the client protocol.

These are the only messages :mod:`repro.net` adds on top of the protocol
vocabularies — everything else on the wire is an unmodified protocol
message. Apart from the three handshake records they derive from
:class:`~repro.core.messages.Message`, so the one codec and one registry
cover the whole stream.

Connection roles
----------------

Every TCP connection is opened by exactly one side and typed by its first
frame:

* ``NodeHello(pid)`` — a peer link. Node *i* dials node *j* once and uses
  that connection exclusively for ``i → j`` traffic; *j* learns the sender
  pid from the hello and (hello ack aside) never writes back on it. One
  directed connection per ordered pair keeps reconnect logic trivial (the
  sender owns it).
* ``ClientHello(client_id)`` — a client link. Bidirectional:
  ``ClientSubmit`` frames flow in, ``ClientReply`` frames flow out.

Handshake
---------

The hello and its ack (:data:`HANDSHAKE`) are v2 records outside the
registry: the codec gives them fixed type ids and their fields are
str/int/bool, so any build decodes them and compares registries before
an id-keyed frame is sent. The hello carries the dialer's
``registry_hash``, the :class:`HelloAck` the acceptor's. When they
match the ack says ``accepted``; otherwise the acceptor closes the
link, and the dialer gets an error naming both hashes
(:class:`repro.net.transport.HandshakeRefused`) and retries on its backoff
schedule. :func:`repro.net.transport.dial` is the dial side.

A node that records spans wraps sampled SMR frames in :class:`Traced`
for every peer; a span-less receiver unwraps and drops the envelope, so
traced and untraced nodes interoperate without agreeing on anything.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Any

from ..core.messages import Message
from ..smr.kvstore import KVCommand
from .codec import WIRE_VERSION_BINARY


@dataclass(frozen=True)
class NodeHello:
    """First frame on a peer link: identifies the dialing node.

    ``registry_hash`` fingerprints the dialer's wire-type table, so
    binary type ids are only trusted between identical registries.
    """

    pid: int
    registry_hash: str = ""


@dataclass(frozen=True)
class ClientHello:
    """First frame on a client link: names the session, like :class:`NodeHello`."""

    client_id: str
    registry_hash: str = ""
    #: Accepted and dropped; ``benchmarks/e2e/sut.py`` still passes it.
    max_wire_version: InitVar[int] = WIRE_VERSION_BINARY


@dataclass(frozen=True)
class HelloAck:
    """The acceptor's answer to every hello.

    ``accepted`` is false when the link is refused (the acceptor then
    closes it); ``registry_hash`` is the acceptor's, so a refused dialer
    can report both.
    """

    accepted: bool
    registry_hash: str = ""

    @property
    def wire_version(self) -> int:
        """2 when accepted, else 0: what ``benchmarks/e2e/sut.py`` reads."""
        return WIRE_VERSION_BINARY if self.accepted else 0


#: The handshake records, in the order of their fixed type ids.
HANDSHAKE = (NodeHello, ClientHello, HelloAck)


@dataclass(frozen=True)
class Traced(Message):
    """Span-context envelope around a hot SMR frame.

    ``trace_id`` names the sampled command batch, ``origin`` is the node
    that minted it (the sealing proxy), ``parent`` is the sender-side
    span seq this frame causally follows. A receiver that records spans
    records a ``recv`` span; every receiver processes ``inner`` exactly
    as if it had arrived bare, so tracing never changes protocol
    behavior.
    """

    trace_id: str
    origin: int
    parent: int
    inner: Message


@dataclass(frozen=True)
class ClientSubmit(Message):
    """A client's request that *command* be committed by the service.

    ``request_id`` identifies this submission attempt; retries of the same
    command (same ``command_id``) carry fresh request ids, and the KV
    store's idempotence-by-id makes re-submission safe. ``command`` must be
    a :class:`KVCommand` with a non-empty ``command_id``, or the acceptor closes the link.
    """

    request_id: str
    command: KVCommand
    trace_id: str = ""


@dataclass(frozen=True)
class ClientReply(Message):
    """The proxy's answer once the command was decided and applied.

    ``result`` is the state-machine output observed at the proxy's apply
    time. ``commit_seconds`` is the proxy-observed commit latency (the
    paper's client-latency quantity, measured on a real clock).
    ``duplicate`` marks replies for commands that were already committed
    via an earlier submission (e.g. after a client failover) — the command
    is durable but its original result is not reconstructable here.
    """

    request_id: str
    command_id: str
    result: Any
    commit_seconds: float
    duplicate: bool = False
    trace_id: str = ""


@dataclass(frozen=True)
class WrongShard(Message):
    """Redirect: this node's group does not own the command's key.

    Sent on a client link instead of a :class:`ClientReply` when shard
    routing (at submit time) or the replicated epoch fence (at apply
    time) refuses a command. ``group`` is the group the server believes
    owns the key, ``epoch`` the server's effective map epoch, and
    ``placement`` the server's effective map as a
    :meth:`~repro.shard.placement.PlacementMap.to_payload` dict — the
    client installs it when newer and re-submits to the right group. The
    command was **not** applied here (not logged, not marked applied),
    so re-submission elsewhere cannot double-apply.
    """

    request_id: str
    command_id: str
    group: int
    epoch: int
    placement: Any = None


@dataclass(frozen=True)
class RangeSnapshotRequest(Message):
    """Ask a node for the state of hash-slot range ``[lo, hi)``.

    The range-transfer leg of a rebalance: answered with the same
    :class:`SnapshotChunk` stream full state transfer uses, but the
    payload is a *range* document (keys whose slot falls in the range,
    plus the applied ids of every logged command that touched them —
    carrying the ids is what turns a post-move client retry into a
    ``duplicate`` instead of a second application). Only meaningful
    after the range was fenced: the fence makes the range's state final
    at the serving group, so any time after the fence applies yields the
    same document.
    """

    request_id: str
    lo: int
    hi: int
    slots: int


@dataclass(frozen=True)
class SnapshotRequest(Message):
    """Ask a node for the state a receiver lacks (sent on a client link).

    ``applied_upto`` and ``log_entries`` are the receiver's applied
    frontier and applied-log length. A server whose frontier is not
    beyond ``applied_upto`` answers with one empty terminal
    :class:`SnapshotChunk` carrying its own ``upto``. One that is ahead
    streams its *image* — the document :mod:`repro.storage.snapshot`
    writes to disk (map, frontier, decided tail), rendered from live
    state — with the log suffix ``log[log_entries:]`` in place of the
    archive prefix, and the command id of entry ``log_entries - 1`` as
    the anchor the receiver checks its own log against. An empty
    receiver (``log_entries=0``) gets the whole log.
    """

    request_id: str
    applied_upto: int = 0
    log_entries: int = 0


@dataclass(frozen=True)
class SnapshotChunk(Message):
    """One piece of a transfer document (an image or a range document).

    ``upto`` is the serving replica's applied frontier when it answered;
    ``upto < 0`` means the node hosts no SMR replica and the request
    cannot be served. ``seq`` orders chunks, ``last`` marks the end of
    the stream; concatenating the ``payload`` bytes in sequence yields
    the document (one codec payload), which is empty when the server is
    not ahead.
    """

    request_id: str
    seq: int
    last: bool
    upto: int
    payload: bytes


@dataclass(frozen=True)
class StatsRequest(Message):
    """Ask a node for its observability snapshot (sent on a client link).

    Answered regardless of whether the node hosts a client service —
    statistics are a property of the runtime, not of the KV layer. Set
    ``include_spans`` to also receive the node's retained span-recorder
    window (only meaningful when the node records spans).
    """

    request_id: str
    include_spans: bool = False


@dataclass(frozen=True)
class StatsReply(Message):
    """One node's metrics snapshot, JSON-safe and mergeable.

    ``snapshot`` is exactly :meth:`repro.obs.Observability.snapshot` plus
    a ``"decisions"`` key with the node's per-slot decision records when
    the hosted process is an SMR replica;
    :func:`repro.obs.merge_snapshots` /
    :func:`repro.obs.merge_decision_records` fold replies cluster-wide.
    The decision records are the node's one per-decision record.
    ``spans`` carries the span-recorder window when ``include_spans``.
    """

    request_id: str
    pid: int
    snapshot: Any
    spans: Any = ()
