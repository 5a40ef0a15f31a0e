"""Runtime-level wire vocabulary: handshakes and the client protocol.

These are the only messages :mod:`repro.net` adds on top of the protocol
vocabularies — everything else on the wire is an unmodified protocol
message. They derive from :class:`~repro.core.messages.Message` so the
one codec and one registry cover the whole stream.

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

The hello and its ack are the only frames written as wire version 1
(JSON, keyed by name), so any build can read them and compare registries
before an id-keyed frame is sent. The hello announces the dialer's
``max_wire_version`` and ``registry_hash``; the acceptor answers with a :class:`HelloAck`
carrying its own hash. When both ends speak v2 over the same registry
the ack says ``wire_version=2`` and every later frame, in both
directions, is binary v2. Otherwise the ack says ``0`` and the acceptor
closes the link: the dialer gets an error naming both hashes
(:class:`repro.net.node.HandshakeRefused`) and retries on its backoff
schedule. :func:`repro.net.node.dial` is the dial side.

A node that records spans wraps sampled SMR frames in :class:`Traced`
for every peer; a span-less receiver unwraps and drops the envelope, so
traced and untraced nodes interoperate without agreeing on anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.messages import Message
from ..smr.kvstore import KVCommand


@dataclass(frozen=True)
class NodeHello(Message):
    """First frame on a peer link: identifies the dialing node.

    ``max_wire_version`` announces the highest frame format the dialer
    can speak (a hello without the field decodes as 1, a pre-v2 build);
    ``registry_hash`` fingerprints its wire-name table so binary type ids
    are only trusted between identical registries.
    """

    pid: int
    max_wire_version: int = 1
    registry_hash: str = ""


@dataclass(frozen=True)
class ClientHello(Message):
    """First frame on a client link: identifies the client session.

    Carries the same handshake fields as :class:`NodeHello`.
    """

    client_id: str
    max_wire_version: int = 1
    registry_hash: str = ""


@dataclass(frozen=True)
class HelloAck(Message):
    """The acceptor's answer to every hello.

    Always encoded as wire version 1. ``wire_version`` is 2 when the link
    is accepted — both sides speak binary v2 from here on — and 0 when it
    is refused, after which the acceptor closes the link.
    ``registry_hash`` is the acceptor's table fingerprint, so a refused
    dialer can report both.
    """

    wire_version: int
    registry_hash: str = ""


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
    store's idempotence-by-id makes re-submission safe.
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
    the stream; concatenating the ``payload`` strings in sequence yields
    the document, which is empty when the server is not ahead.
    """

    request_id: str
    seq: int
    last: bool
    upto: int
    payload: str


@dataclass(frozen=True)
class StatsRequest(Message):
    """Ask a node for its observability snapshot (sent on a client link).

    Answered regardless of whether the node hosts a client service —
    statistics are a property of the runtime, not of the KV layer. Set
    ``include_trace`` to also receive the node's retained flight-recorder
    events (only meaningful when the node was launched with tracing on);
    ``include_spans`` likewise pulls the retained span-recorder window.
    """

    request_id: str
    include_trace: bool = False
    include_spans: bool = False


@dataclass(frozen=True)
class StatsReply(Message):
    """One node's metrics snapshot, JSON-safe and mergeable.

    ``snapshot`` is exactly :meth:`repro.obs.Observability.snapshot` plus
    a ``"decisions"`` key with the node's per-slot decision records when
    the hosted process is an SMR replica;
    :func:`repro.obs.merge_snapshots` /
    :func:`repro.obs.merge_decision_records` fold replies cluster-wide.
    ``trace`` carries the retained ring-buffer events when requested;
    ``spans`` carries the span-recorder window when ``include_spans``.
    """

    request_id: str
    pid: int
    snapshot: Any
    trace: Any = ()
    spans: Any = ()
