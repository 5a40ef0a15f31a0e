"""Recovery orchestration: persist, replay, and transfer replica state.

Three cooperating pieces, all built from the primitives in this package:

* :class:`NodeStorage` — one node's data directory layout
  (``<data_dir>/node-<pid>/`` holding WAL segments, snapshot images, the
  applied-log archive they stand on, and a small ``node.json`` with the
  bound port for stable restarts, plus a ``registry.stamp`` naming the
  registry hash its records were written under).
* :class:`ReplicaPersister` — the live persistence hook. The node
  runtime calls :meth:`ReplicaPersister.after_activation` at the end of
  every activation: it journals the activation's state changes and
  hands them, as one group commit, to the node's
  :class:`~repro.storage.writer.StorageWriter`, which returns a ticket
  and does the ``write`` + ``fsync`` on its own thread. The loop does
  not wait; the *outbox* does. The runtime stages the activation's peer
  frames and client replies, and while any ticket is not yet durable
  they join an ordered hold tagged with the newest ticket. When the
  writer reports ticket *t* durable, every held entry tagged ≤ *t*
  leaves, in order, so no frame overtakes an earlier one and nothing
  reaches the wire before the records it depends on — the write-ahead
  property without per-record fsyncs and without blocking the loop.
  Snapshots are rendered on the loop and written by the same thread in
  crash-safe order: archive append + fsync, image temp + fsync + rename
  + directory fsync, close of the old segment, the new segment's first
  commit, retention.
* Recovery + state transfer — :meth:`ReplicaPersister.recover` rebuilds
  a replica from snapshot + WAL before launch; :func:`fetch_snapshot`
  sends a peer the local frontier and log length and gets back one empty
  chunk if the peer is not ahead, else its *live* image plus the log
  suffix the receiver lacks, anchored on the receiver's last entry
  (:meth:`ReplicaPersister.install_remote` splices it in). Both paths
  install through :func:`install_image`. This is the paper's recovery
  story made operational: the consensus-level rule (1B value selection
  from n−f−e votes, Theorems 5/6) governs per-slot recovery, while
  snapshot+WAL+transfer governs process recovery.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import uuid
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ..core.errors import ConfigurationError, ReproError
from ..core.values import BOTTOM, is_bottom
from ..obs import Observability, NULL_OBS
from ..protocols.twostep import PersistedSlotState
from ..smr.kvstore import BatchRef, CommandBatch
from ..smr.log import SMRReplica
from .files import atomic_write_text
from .records import WalDecision, WalSlotState, decode_record, encode_record
from .retention import RetentionPolicy, RetentionReport
from .snapshot import (
    ARCHIVE_NAME,
    AppliedLogArchive,
    SnapshotError,
    SnapshotInfo,
    decode_image,
    deserialize_range_state,
    list_snapshots,
    load_snapshot,
    read_image,
    scan_archive,
    serialize_range_state,
    transfer_image,
    write_snapshot,
)
from .wal import WriteAheadLog, list_segments, next_segment_seq, scan_segment
from .writer import WRITER_THREAD_NAME, StorageWriter

#: SnapshotChunk payload size (bytes of the transfer document per frame).
TRANSFER_CHUNK_BYTES = 256 * 1024
#: Rounds of :func:`catch_up` a durable node runs after launch.
CATCH_UP_ROUNDS = 5
#: Seconds from launch to the first catch-up round.
CATCH_UP_DELAY = 0.25


class NodeStorage:
    """Directory layout for one node's durable state."""

    def __init__(self, root: pathlib.Path, pid: int) -> None:
        self.root = pathlib.Path(root)
        self.pid = pid
        self.dir = self.root / f"node-{pid}"
        self.dir.mkdir(parents=True, exist_ok=True)

    # -- WAL -----------------------------------------------------------
    def segments(self) -> List[pathlib.Path]:
        return list_segments(self.dir)

    def new_segment(
        self, fsync: bool, writer: StorageWriter, obs: Observability = NULL_OBS
    ) -> WriteAheadLog:
        return WriteAheadLog.create(
            self.dir, next_segment_seq(self.dir), writer, fsync=fsync, obs=obs
        )

    # -- snapshots -----------------------------------------------------
    @property
    def archive_path(self) -> pathlib.Path:
        return self.dir / ARCHIVE_NAME

    # -- metadata ------------------------------------------------------
    @property
    def meta_path(self) -> pathlib.Path:
        return self.dir / "node.json"

    def read_meta(self) -> Dict[str, Any]:
        try:
            return json.loads(self.meta_path.read_text())
        except (OSError, ValueError):
            return {}

    def update_meta(self, **fields: Any) -> Dict[str, Any]:
        meta = self.read_meta()
        meta.update(fields)
        atomic_write_text(self.meta_path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
        return meta

    # -- registry stamp ------------------------------------------------
    @property
    def stamp_path(self) -> pathlib.Path:
        return self.dir / "registry.stamp"

    def read_stamp(self) -> Optional[str]:
        """The stamp file's text; ``None`` when there is no stamp file."""
        try:
            return self.stamp_path.read_text("ascii", "replace").strip()
        except FileNotFoundError:
            return None

    def stamp_problem(self, registry_hash: str) -> Optional[str]:
        """Why a codec over *registry_hash* must not read this directory:
        ``None`` when the stamp matches or no segment, archive or image is
        here. A record written under another registry's type ids can
        decode as the wrong type without error."""
        stamp = self.read_stamp()
        held = self.segments() or self.archive_path.exists() or list_snapshots(self.dir)
        if stamp == registry_hash or not held:
            return None
        names = {None: "none (no stamp file: an older build)", "": "unreadable (empty file)"}
        return (
            f"{self.dir}: written under registry {names.get(stamp, stamp)}"
            f", this build reads {registry_hash}; recover it with the build that "
            "wrote it, or move it aside and let the node catch up from its peers"
        )


class RecoveryError(RuntimeError):
    """The durable state on disk cannot be turned back into a replica."""


@dataclass(frozen=True)
class RecoveryResult:
    """What one local recovery pass rebuilt."""

    snapshot: Optional[SnapshotInfo]
    snapshot_entries: int  #: applied log entries restored from the archive
    replayed_entries: int  #: WAL records applied on top of it
    torn_segments: int  #: segments that ended in a torn tail
    segments_scanned: int

    @property
    def recovered_anything(self) -> bool:
        return self.snapshot is not None or self.replayed_entries > 0


class ReplicaPersister:
    """Durability + recovery driver for one live :class:`SMRReplica`."""

    def __init__(
        self,
        storage: NodeStorage,
        replica: Any,
        codec: Any,
        obs: Observability = NULL_OBS,
        fsync: bool = True,
        snapshot_every: int = 256,
    ) -> None:
        if snapshot_every < 1:
            raise ConfigurationError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        self.storage = storage
        self.replica = replica
        self.codec = codec
        self.obs = obs
        self.fsync = fsync
        self.snapshot_every = snapshot_every
        self.retention = RetentionPolicy()
        self._wal: Optional[WriteAheadLog] = None
        #: This node's one storage thread: WAL, archive, images, retention.
        self.writer = StorageWriter(f"{WRITER_THREAD_NAME} {storage.dir}")
        self._archive = AppliedLogArchive(
            storage.archive_path, self.writer, fsync=fsync, obs=obs
        )
        # Durable-state caches: what the current WAL segment (or the image
        # under it) already covers, so after_activation journals only
        # genuine changes. All three restart empty with every segment.
        self._durable_decided: Set[int] = set()
        self._states: Dict[int, PersistedSlotState] = {}
        self._journaled: Set[Tuple[int, BatchRef]] = set()  # bodies, per slot
        self._last_snapshot_upto = 0
        self.recovered: Optional[RecoveryResult] = None

    # ------------------------------------------------------------------
    # Recovery (before launch).
    # ------------------------------------------------------------------

    def recover(self) -> RecoveryResult:
        """Rebuild the replica from snapshot + WAL; open a fresh segment.

        First refuses a directory :meth:`NodeStorage.stamp_problem` names,
        or stamps a new one durably. Returns once what recovery wrote (the
        snapshot consolidating the replay) is on disk.
        """
        replica = self.replica
        registry = self.obs.registry
        ours = self.codec.registry_hash
        problem = self.storage.stamp_problem(ours)
        if problem is not None:
            raise RecoveryError(problem)
        if self.storage.read_stamp() != ours:
            # Nothing here yet: no record depends on the stamp it replaces.
            atomic_write_text(self.storage.stamp_path, ours + "\n", durable=True)
        info, state = self._load_newest_usable_snapshot()
        snapshot_entries = 0
        if state is None:
            self._archive.open_at(0, 0)
        else:
            # Cut the archive back to the image's prefix before anything
            # can be appended behind an orphan (possibly torn) tail.
            self._archive.open_at(state["log_entries"], state["archive_bytes"])
            install_image(replica, state, state["log"])
            snapshot_entries = len(replica.store.log)
            self._last_snapshot_upto = replica.applied_upto
            registry.inc("storage.snapshot_loaded")
        replayed = 0
        torn = 0
        segments = self.storage.segments()
        for segment in segments:
            result = scan_segment(segment)
            if result.torn:
                torn += 1
                registry.inc("storage.wal_torn_segments")
            bodies: Dict[Tuple[int, BatchRef], CommandBatch] = {}
            for record in _records(self.codec, segment, result.payloads):
                if isinstance(record, WalDecision):
                    value = _resolve(bodies, segment, record.slot, record.value)
                    if replica.restore_decided(record.slot, value):
                        replayed += 1
                elif isinstance(record, WalSlotState):
                    state = tuple(
                        _resolve(bodies, segment, record.slot, field)
                        for field in record.state
                    )
                    if replica.restore_slot_state(record.slot, state):
                        replayed += 1
        registry.inc("storage.replayed_entries", replayed)
        # All writes go to a brand-new segment: old ones stay read-only,
        # so append-after-torn-tail-truncation can never corrupt history.
        self._wal = self.storage.new_segment(self.fsync, self.writer, obs=self.obs)
        result = RecoveryResult(
            snapshot=info,
            snapshot_entries=snapshot_entries,
            replayed_entries=replayed,
            torn_segments=torn,
            segments_scanned=len(segments),
        )
        self.recovered = result
        if result.recovered_anything:
            # Roll what we just replayed into a fresh snapshot so the next
            # crash replays only post-restart records, and retention can
            # retire the segments we just consumed.
            self._write_snapshot()
        replica.dirty_slots.clear()  # everything replayed is durable
        self.writer.drain()
        return result

    def _load_newest_usable_snapshot(
        self,
    ) -> Tuple[Optional[SnapshotInfo], Optional[Dict[str, Any]]]:
        """The newest retained image that loads, with its decoded state.

        An image that does not parse, has the wrong format, or names an
        archive prefix that is not there is skipped and counted. Images
        but no usable one is fatal: the WAL segments below the images are
        retired, so replaying the WAL alone would yield a short log.
        """
        images = list_snapshots(self.storage.dir)
        problems: List[str] = []
        for info in reversed(images):
            try:
                return info, load_snapshot(self.codec, info)
            except SnapshotError as exc:
                self.obs.registry.inc("storage.snapshot_fallbacks")
                problems.append(str(exc))
        if images:
            raise RecoveryError(
                f"{self.storage.dir}: none of the {len(images)} retained snapshot "
                f"image(s) is usable ({'; '.join(problems)}); the WAL below them "
                "is retired, so this node cannot recover locally"
            )
        return None, None

    # ------------------------------------------------------------------
    # The per-activation hook (the write-ahead property lives here).
    # ------------------------------------------------------------------

    def after_activation(self) -> None:
        """Journal this activation's state changes, then hand off a group
        commit (and a snapshot, when one is due) to :attr:`writer`."""
        replica = self.replica
        wal = self._wal
        if wal is None:
            return
        dirty = replica.dirty_slots
        if dirty:
            decided = replica.decided
            states = dict(replica.open_slot_states(dirty))
            for slot in sorted(dirty):
                if slot in decided:
                    if slot not in self._durable_decided:
                        self._durable_decided.add(slot)
                        record = WalDecision(slot, self._once(slot, decided[slot]))
                        wal.append(encode_record(self.codec, record))
                elif slot in states:
                    self._journal_slot_state(slot, states[slot])
            dirty.clear()
        wal.commit()
        if replica.applied_upto - self._last_snapshot_upto >= self.snapshot_every:
            self._write_snapshot()

    def _journal_slot_state(self, slot: int, state: PersistedSlotState) -> None:
        if self._states.get(slot) == state:
            return
        self._states[slot] = state
        record = WalSlotState(slot, *(self._once(slot, field) for field in state))
        assert self._wal is not None
        self._wal.append(encode_record(self.codec, record))

    def _once(self, slot: int, value: Any) -> Any:
        """*value*, or its reference once this segment holds the body.

        One body per slot per segment: the first field that mentions a
        batch for *slot* carries it, every later one (in the same record
        or a later one) its ``BatchRef``; :meth:`recover` resolves
        references from bodies seen earlier in the same segment.
        """
        if type(value) is not CommandBatch:
            return value
        key = (slot, value.ref)
        if key in self._journaled:
            return key[1]
        self._journaled.add(key)
        return value

    # ------------------------------------------------------------------
    # Snapshots + rotation + retention.
    # ------------------------------------------------------------------

    def _write_snapshot(self) -> SnapshotInfo:
        """Archive + image, then rotate, then retire what they cover.

        Only called with an empty WAL buffer (after a commit, or outside
        any activation). Everything is rendered here and written by
        :attr:`writer` in the order it is queued, so every stage leaves a
        recoverable directory: archive tail without image — cut off on
        recovery; image without rotation — the old segment replays as
        no-ops; rotation without retention — extra files, retired by the
        next snapshot.
        """
        replica = self.replica
        assert self._wal is not None
        next_seq = self._wal.seq + 1
        info = write_snapshot(
            self.storage.dir, self.codec, replica, next_seq, self._archive
        )
        # Rotate: the snapshot covers every record in segments < next_seq.
        self._wal.close()
        self._wal = WriteAheadLog.create(
            self.storage.dir, next_seq, self.writer, fsync=self.fsync, obs=self.obs
        )
        truncated = replica.truncate_below(replica.applied_upto)
        # The new segment starts knowing nothing: slots still open are
        # journaled again (body in full), so the image plus the segments
        # from next_seq on suffice and the older ones can be retired.
        self._durable_decided = set(replica.decided)  # the image's tail
        self._states = {}
        self._journaled = set()
        for slot, state in replica.open_slot_states():
            self._journal_slot_state(slot, state)
        self._wal.commit()
        self._last_snapshot_upto = info.upto
        self.writer.call(partial(self.retention.apply, self.storage.dir), self._retired)
        registry = self.obs.registry
        registry.inc("storage.snapshots_written")
        registry.inc("storage.truncated_slots", truncated)
        return info

    def _retired(self, report: RetentionReport) -> None:
        if report.deleted:
            self.obs.registry.inc("storage.retention_deleted_files", report.deleted)

    # ------------------------------------------------------------------
    # State transfer (receiver side).
    # ------------------------------------------------------------------

    def install_remote(self, image: Dict[str, Any]) -> int:
        """Install a peer's transfer image; returns new log entries.

        A no-op (returns 0) unless the peer's applied frontier is ahead.
        Raises :class:`SnapshotError`, with the replica untouched, when
        the image's suffix is not anchored on the local log. On install
        the local durable artifacts are refreshed immediately (snapshot +
        rotation), so a crash right after catch-up does not have to
        transfer again.
        """
        replica = self.replica
        if image["applied_upto"] <= replica.applied_upto:
            return 0
        before = len(replica.store.log)
        log = spliced_log(replica.store.log, image)
        install_image(replica, image, log)
        installed = len(log) - before
        if installed > 0:
            registry = self.obs.registry
            registry.inc("storage.snapshot_transfers")
            registry.inc("storage.transferred_entries", installed)
            self._write_snapshot()
        return installed

    # ------------------------------------------------------------------
    # Shutdown.
    # ------------------------------------------------------------------

    def close(self, hard: bool = False) -> None:
        """Close the WAL and stop the writer once what it holds is written.

        ``hard=True`` models SIGKILL: the uncommitted buffer is dropped,
        and a writer failure is not raised. Either way the writer thread
        is joined before this returns.
        """
        self._archive.close()
        if self._wal is not None:
            if hard:
                self._wal.abandon()
            else:
                self._wal.close()
            self._wal = None
        try:
            if not hard:
                self.writer.drain()
        finally:
            self.writer.stop()


def _records(codec: Any, segment: pathlib.Path, payloads: List[bytes]) -> Iterator[Any]:
    """*segment*'s payloads decoded. One that does not decode (its CRC
    held, so it is not a torn tail) raises :class:`RecoveryError`, and so
    does one journaling a slot value that is not a batch: older builds
    decided bare commands at batch size 1 and for gap-repair no-ops."""
    for index, payload in enumerate(payloads):
        try:
            record = decode_record(codec, payload)
        except ReproError as exc:
            raise RecoveryError(
                f"{segment.name}: record {index} does not decode ({exc})"
            ) from None
        if isinstance(record, (WalDecision, WalSlotState)):
            for value in (record.value, getattr(record, "initial_value", BOTTOM)):
                if type(value) not in (CommandBatch, BatchRef) and not is_bottom(value):
                    raise RecoveryError(
                        f"{segment.name}: record {index} holds a bare "
                        f"{type(value).__name__} for slot {record.slot}; this "
                        "build journals only batches, so the directory must be wiped"
                    )
        yield record


def _resolve(
    bodies: Dict[Tuple[int, BatchRef], CommandBatch],
    segment: pathlib.Path,
    slot: int,
    value: Any,
) -> Any:
    """A journaled value in full: note a body, look a reference up.

    *bodies* is per segment — a reference only ever points backwards
    within the segment that holds it, so any valid prefix resolves.
    """
    if type(value) is CommandBatch:
        bodies[(slot, value.ref)] = value
    elif type(value) is BatchRef:
        try:
            return bodies[(slot, value)]
        except KeyError:
            raise RecoveryError(
                f"{segment.name}: slot {slot} refers to batch {value.batch_id!r} "
                "before journaling its body"
            ) from None
    return value


def install_image(replica: Any, image: Dict[str, Any], log: List[Any]) -> None:
    """Adopt *image* over applied log *log*: recovery and transfer alike.

    The store and frontier wholesale, then the decided tail, then the
    slot machinery below the new frontier is truncated (re-queueing our
    uncommitted commands there). Safe for transfer because decided logs
    are prefix-consistent: a peer whose frontier is beyond ours holds an
    extension of our log.
    """
    replica.restore_store({"data": image["data"], "log": log}, image["applied_upto"])
    tail = image["decided_tail"]
    for slot in sorted(tail):
        replica.restore_decided(slot, tail[slot])
    replica.truncate_below(replica.applied_upto)


def spliced_log(log: List[Any], image: Dict[str, Any]) -> List[Any]:
    """*log* with a transfer image's suffix spliced on at its anchor.

    Raises :class:`SnapshotError` unless the local entry just below the
    suffix carries the anchor's command id (``None``: no entry).
    """
    suffix = image["suffix"]
    base = image["log_entries"] - len(suffix)
    mine = log[base - 1].command_id if 0 < base <= len(log) else None
    if base < 0 or base > len(log) or mine != image["anchor"]:
        raise SnapshotError(
            f"transfer suffix anchored at entry {base - 1} ({image['anchor']!r}) "
            f"does not extend this log of {len(log)} entries ({mine!r} there)"
        )
    return log[:base] + suffix


async def _fetch_document(
    address: Tuple[str, int], codec: Any, client_id: str, request: Any, timeout: float
) -> Optional[bytes]:
    """Send *request* on a fresh client link; join the chunks it answers.

    Returns ``None`` when the peer hosts no replica, ``b""`` when it
    answered with one empty chunk.
    """
    from ..net.transport import exchange
    from ..net.wire import SnapshotChunk

    parts: List[bytes] = []
    async with exchange(address, codec, client_id, request, timeout) as receive:
        while True:
            frame = await receive()
            if not isinstance(frame, SnapshotChunk) or frame.request_id != request.request_id:
                continue
            if frame.upto < 0:
                return None  # peer hosts no replica
            parts.append(frame.payload)
            if frame.last:
                return b"".join(parts)


async def fetch_snapshot(
    address: Tuple[str, int],
    codec: Any,
    client_id: str = "snapshot-fetch",
    applied_upto: int = 0,
    log_entries: int = 0,
    timeout: float = 10.0,
) -> Optional[Dict[str, Any]]:
    """Pull one peer's transfer image over the client-link protocol.

    *applied_upto* and *log_entries* describe the receiver: the peer
    answers only if its frontier is beyond *applied_upto*, with the log
    from entry *log_entries* on. Returns the decoded image, or ``None``
    when the peer is not ahead or hosts no SMR replica. Raises
    ``OSError``/``asyncio.TimeoutError``/``CodecError`` on transport
    problems and :class:`SnapshotError` on a malformed image — callers
    iterate peers and tolerate individual failures.
    """
    from ..net.wire import SnapshotRequest

    request = SnapshotRequest(
        f"{client_id}:{uuid.uuid4().hex[:8]}", applied_upto, log_entries
    )
    blob = await _fetch_document(address, codec, client_id, request, timeout)
    if not blob:
        return None
    return decode_image(codec, blob, f"transfer from {address}", on_disk=False)


async def fetch_range_state(
    address: Tuple[str, int],
    codec: Any,
    lo: int,
    hi: int,
    slots: int,
    client_id: str = "range-fetch",
    timeout: float = 10.0,
) -> Optional[Dict[str, Any]]:
    """Pull one fenced range's state from a node over the client link.

    The rebalance mover's transfer leg: same chunked protocol as
    :func:`fetch_snapshot`, but the request names a hash-slot range and
    the stream carries a range document. Returns ``None`` when the peer
    hosts no replica.
    """
    from ..net.wire import RangeSnapshotRequest

    request = RangeSnapshotRequest(f"{client_id}:{uuid.uuid4().hex[:8]}", lo, hi, slots)
    blob = await _fetch_document(address, codec, client_id, request, timeout)
    return None if blob is None else deserialize_range_state(codec, blob)


def transfer_chunks(codec: Any, replica: Any, request: Any) -> List[Any]:
    """Serve side of both transfers: the chunk stream answering *request*.

    A range request gets the range document; a state request gets the
    transfer image if this replica is ahead of the receiver, else one
    empty chunk (nothing is rendered).
    """
    from ..net.wire import RangeSnapshotRequest, SnapshotChunk

    if isinstance(request, RangeSnapshotRequest):
        blob = serialize_range_state(
            codec, replica, request.lo, request.hi, request.slots
        )
    elif replica.applied_upto > request.applied_upto:
        blob = transfer_image(codec, replica, request.log_entries)
    else:
        blob = b""
    size = TRANSFER_CHUNK_BYTES
    parts = [blob[start : start + size] for start in range(0, len(blob), size)] or [b""]
    return [
        SnapshotChunk(request.request_id, seq, seq == len(parts) - 1, replica.applied_upto, part)
        for seq, part in enumerate(parts)
    ]


def serve_transfer(node: Any, request: Any) -> List[Any]:
    """A live node's answer to a state or range transfer request.

    Rendering happens synchronously on the node's event loop, so the
    shipped state is a consistent point-in-time view (no activation can
    interleave). A range is only meaningful once it is fenced at this
    group — the fence makes the extracted state final. A node hosting no
    replica answers one terminal ``upto=-1`` chunk, so the fetcher moves
    on to the next peer.
    """
    from ..net.wire import RangeSnapshotRequest, SnapshotChunk

    if not isinstance(node.process, SMRReplica):
        return [SnapshotChunk(request.request_id, 0, True, -1, b"")]
    ranged = isinstance(request, RangeSnapshotRequest)
    node.obs.registry.inc(
        "storage.range_snapshots_served" if ranged else "storage.snapshots_served"
    )
    return transfer_chunks(node.codec, node.process, request)


async def catch_up(node: Any) -> None:
    """Fetch and install a peer's state while *node* is behind its peers.

    A durable node runs this once after launch: each round sends peers
    — nearest pid first — its frontier and log length, and installs the
    image plus log suffix a peer that is ahead answers with. Stops when
    no reachable peer is ahead (fresh boots converge on the first round,
    one empty chunk per peer) or after :data:`CATCH_UP_ROUNDS` installs;
    from there the normal message flow keeps the node current. A
    malformed image or a suffix that does not extend the node's log is
    counted in ``storage.transfer_rejected`` and the next peer is tried.
    """
    from ..net.codec import CodecError

    await asyncio.sleep(CATCH_UP_DELAY)
    replica = node.process
    for _ in range(CATCH_UP_ROUNDS):
        if node.crashed:
            return
        progressed = False
        for step in range(1, node.n):
            peer = (node.pid + step) % node.n
            try:
                image = await fetch_snapshot(
                    node.addresses[peer],
                    node.codec,
                    client_id=f"catchup-{node.pid}",
                    applied_upto=replica.applied_upto,
                    log_entries=len(replica.store.log),
                    timeout=5.0,
                )
                if image is None or node.crashed:
                    continue
                installed = node.persister.install_remote(image)
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, CodecError):
                continue
            except SnapshotError as exc:
                # A malformed image, or a suffix not anchored on our log.
                node.log.warning("refused state from peer %d: %s", peer, exc)
                node.obs.registry.inc("storage.transfer_rejected")
                continue
            if installed > 0:
                node.log.info(
                    "caught up from peer %d: +%d log entries (frontier %d)",
                    peer,
                    installed,
                    replica.applied_upto,
                )
                progressed = True
                break
        if not progressed:
            return


def inspect_data_dir(root: pathlib.Path, codec: Any) -> List[Dict[str, Any]]:
    """Offline summary of every node directory under *root*.

    Powers ``python -m repro recover``: per node, the applied-log
    archive's valid extent, the retained images and whether the archive
    covers the prefix each one names, each WAL segment's record count and
    torn-tail status (or why a record in it does not decode), the highest
    slot any record mentions, and the registry stamp — without
    constructing a replica. ``problems`` lists what would make
    :meth:`ReplicaPersister.recover` refuse the directory.
    """
    rows: List[Dict[str, Any]] = []
    root = pathlib.Path(root)
    build = codec.registry_hash
    for node_dir in sorted(root.glob("node-*")):
        pid = node_dir.name.split("-", 1)[1]
        if not (node_dir.is_dir() and pid.isdigit()):
            continue
        storage = NodeStorage(root, int(pid))
        archive_path = node_dir / ARCHIVE_NAME
        entries, good_bytes = 0, 0
        prefixes = {(0, 0)}  # every (entries, bytes) an image may name
        for commands, good_bytes in scan_archive(archive_path, codec):
            entries += len(commands)
            prefixes.add((entries, good_bytes))
        file_bytes = archive_path.stat().st_size if archive_path.exists() else 0
        snapshots = []
        for info in list_snapshots(node_dir):
            row = {"file": info.path.name, "upto": info.upto, "wal_seq": info.wal_seq}
            try:
                image = read_image(codec, info)
            except SnapshotError as exc:
                row.update(covered=False, problem=str(exc))
            else:
                prefix = (image["log_entries"], image["archive_bytes"])
                row.update(
                    log_entries=prefix[0],
                    archive_bytes=prefix[1],
                    bytes=info.path.stat().st_size,
                    covered=prefix in prefixes,
                )
            snapshots.append(row)
        stamp = storage.stamp_problem(build)
        problems = [] if stamp is None else [stamp]
        decisions = 0
        slot_states = 0
        torn = 0
        max_slot = -1
        segments = []
        for segment in list_segments(node_dir):
            result = scan_segment(segment)
            if result.torn:
                torn += 1
            seg = {
                "file": segment.name,
                "records": len(result.payloads),
                "bytes": result.good_bytes,
                "torn_tail": result.torn,
            }
            try:
                for record in _records(codec, segment, result.payloads):
                    if isinstance(record, WalDecision):
                        decisions += 1
                        max_slot = max(max_slot, record.slot)
                    elif isinstance(record, WalSlotState):
                        slot_states += 1
                        max_slot = max(max_slot, record.slot)
            except RecoveryError as exc:
                seg["problem"] = str(exc)
                problems.append(str(exc))
            segments.append(seg)
        rows.append(
            {
                "node": node_dir.name,
                "archive": {
                    "entries": entries,
                    "bytes": good_bytes,
                    "torn_tail": good_bytes != file_bytes,
                },
                "snapshots": snapshots,
                "segments": segments,
                "wal_decisions": decisions,
                "wal_slot_states": slot_states,
                "torn_segments": torn,
                "max_slot_seen": max_slot,
                "meta": storage.read_meta(),
                "registry": {"stamp": storage.read_stamp(), "build": build},
                "problems": problems,
            }
        )
    return rows


__all__ = [
    "CATCH_UP_DELAY",
    "CATCH_UP_ROUNDS",
    "NodeStorage",
    "RecoveryError",
    "RecoveryResult",
    "ReplicaPersister",
    "TRANSFER_CHUNK_BYTES",
    "catch_up",
    "fetch_snapshot",
    "inspect_data_dir",
    "install_image",
    "serve_transfer",
    "spliced_log",
    "transfer_chunks",
]
