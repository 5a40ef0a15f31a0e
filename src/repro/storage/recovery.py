"""Recovery orchestration: persist, replay, and transfer replica state.

Three cooperating pieces, all built from the primitives in this package:

* :class:`NodeStorage` — one node's data directory layout
  (``<data_dir>/node-<pid>/`` holding WAL segments, snapshot images, the
  applied-log archive they stand on, and a small ``node.json`` with the
  bound port for stable restarts).
* :class:`ReplicaPersister` — the live persistence hook. The node
  runtime calls :meth:`ReplicaPersister.after_activation` at the end of
  every activation, *before* the event loop yields: since activations
  are synchronous and sender tasks only run when the loop yields, every
  WAL record lands (and is group-commit fsynced) before any frame or
  client reply produced by that activation can reach the wire — the
  write-ahead property without per-record fsyncs.
* Recovery + state transfer — :meth:`ReplicaPersister.recover` rebuilds
  a replica from snapshot + WAL before launch; :func:`fetch_snapshot`
  pulls a peer's *live* serialized state over the client-link protocol
  (``SnapshotRequest`` → ``SnapshotChunk`` stream) and
  :func:`install_state` grafts it in, which is how a restarted node
  catches up without replaying the full message history. This is the
  paper's recovery story made operational: the consensus-level rule
  (1B value selection from n−f−e votes, Theorems 5/6) governs per-slot
  recovery, while snapshot+WAL+transfer governs process recovery.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import uuid
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from ..obs import Observability, NULL_OBS
from ..smr.kvstore import BatchRef, CommandBatch
from .files import atomic_write_text
from .records import WalDecision, WalSlotState, decode_record, encode_record
from .retention import RetentionPolicy
from .snapshot import (
    ARCHIVE_NAME,
    AppliedLogArchive,
    SnapshotError,
    SnapshotInfo,
    deserialize_replica_state,
    list_snapshots,
    load_snapshot,
    read_image,
    scan_archive,
    serialize_replica_state,
    write_snapshot,
)
from .wal import WriteAheadLog, list_segments, next_segment_seq, scan_segment

#: SnapshotChunk payload size (characters of the JSON document per frame).
TRANSFER_CHUNK_CHARS = 256 * 1024


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

    def new_segment(self, fsync: bool, obs: Observability = NULL_OBS) -> WriteAheadLog:
        return WriteAheadLog.create(
            self.dir, next_segment_seq(self.dir), fsync=fsync, obs=obs
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
        retention: Optional[RetentionPolicy] = None,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
        self.storage = storage
        self.replica = replica
        self.codec = codec
        self.obs = obs
        self.fsync = fsync
        self.snapshot_every = snapshot_every
        self.retention = retention if retention is not None else RetentionPolicy()
        self._wal: Optional[WriteAheadLog] = None
        self._archive = AppliedLogArchive(storage.archive_path, fsync=fsync, obs=obs)
        # Durable-state caches: what the current WAL segment (or the image
        # under it) already covers, so after_activation journals only
        # genuine changes. All three restart empty with every segment.
        self._durable_decided: Set[int] = set()
        self._fingerprints: Dict[int, Tuple] = {}
        self._journaled: Set[Tuple[int, BatchRef]] = set()  # bodies, per slot
        self._last_snapshot_upto = 0
        self.recovered: Optional[RecoveryResult] = None

    # ------------------------------------------------------------------
    # Recovery (before launch).
    # ------------------------------------------------------------------

    def recover(self) -> RecoveryResult:
        """Rebuild the replica from snapshot + WAL; open a fresh segment."""
        replica = self.replica
        registry = self.obs.registry
        info, state = self._load_newest_usable_snapshot()
        snapshot_entries = 0
        if state is None:
            self._archive.open_at(0, 0)
        else:
            # Cut the archive back to the image's prefix before anything
            # can be appended behind an orphan (possibly torn) tail.
            self._archive.open_at(state["log_entries"], state["archive_bytes"])
            replica.restore_store(state["store"], state["applied_upto"])
            snapshot_entries = len(replica.store.log)
            for slot in sorted(state["decided_tail"]):
                replica.restore_decided(slot, state["decided_tail"][slot])
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
            for payload in result.payloads:
                record = decode_record(self.codec, payload)
                if isinstance(record, WalDecision):
                    value = _resolve(bodies, segment, record.slot, record.value)
                    if replica.restore_decided(record.slot, value):
                        replayed += 1
                elif isinstance(record, WalSlotState):
                    value = _resolve(bodies, segment, record.slot, record.value)
                    initial_value = _resolve(
                        bodies, segment, record.slot, record.initial_value
                    )
                    if replica.restore_slot_state(
                        record.slot,
                        bal=record.bal,
                        vbal=record.vbal,
                        value=value,
                        initial_value=initial_value,
                        sent_twoa=record.sent_twoa,
                    ):
                        replayed += 1
        registry.inc("storage.replayed_entries", replayed)
        # All writes go to a brand-new segment: old ones stay read-only,
        # so append-after-torn-tail-truncation can never corrupt history.
        self._wal = self.storage.new_segment(self.fsync, obs=self.obs)
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
        """Journal this activation's state changes, then group-commit."""
        replica = self.replica
        wal = self._wal
        if wal is None:
            return
        dirty = replica.dirty_slots
        if dirty:
            decided = replica.decided
            for slot in sorted(dirty):
                if slot in decided:
                    if slot not in self._durable_decided:
                        self._durable_decided.add(slot)
                        record = WalDecision(slot, self._once(slot, decided[slot]))
                        wal.append(encode_record(self.codec, record))
                    continue
                inner = replica._slots.get(slot)
                if inner is not None:
                    self._journal_slot_state(slot, inner)
            dirty.clear()
        wal.commit()
        if replica.applied_upto - self._last_snapshot_upto >= self.snapshot_every:
            self._write_snapshot()

    def _journal_slot_state(self, slot: int, inner: Any) -> None:
        fingerprint = _fingerprint(inner)
        if self._fingerprints.get(slot) == fingerprint:
            return
        self._fingerprints[slot] = fingerprint
        record = WalSlotState(
            slot=slot,
            bal=inner.bal,
            vbal=inner.vbal,
            value=self._once(slot, inner.val),
            initial_value=self._once(slot, inner.initial_val),
            sent_twoa=fingerprint[-1],
        )
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
        any activation), so every stage leaves a recoverable directory:
        archive tail without image — cut off on recovery; image without
        rotation — the old segment replays as no-ops; rotation without
        retention — extra files, retired by the next snapshot.
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
            self.storage.dir, next_seq, fsync=self.fsync, obs=self.obs
        )
        truncated = replica.truncate_below(replica.applied_upto)
        # The new segment starts knowing nothing: slots still open are
        # journaled again (body in full), so the image plus the segments
        # from next_seq on suffice and the older ones can be retired.
        self._durable_decided = set(replica.decided)  # the image's tail
        self._fingerprints = {}
        self._journaled = set()
        for slot in sorted(replica._slots):
            if slot not in replica.decided:
                self._journal_slot_state(slot, replica._slots[slot])
        self._wal.commit()
        self._last_snapshot_upto = info.upto
        report = self.retention.apply(self.storage.dir)
        registry = self.obs.registry
        registry.inc("storage.snapshots_written")
        registry.inc("storage.truncated_slots", truncated)
        if report.deleted:
            registry.inc("storage.retention_deleted_files", report.deleted)
        return info

    # ------------------------------------------------------------------
    # State transfer (receiver side).
    # ------------------------------------------------------------------

    def install_remote(self, state: Dict[str, Any]) -> int:
        """Install a peer's serialized state; returns new log entries.

        A no-op (returns 0) unless the peer's applied frontier is ahead.
        On install the local durable artifacts are refreshed immediately
        (snapshot + rotation), so a crash right after catch-up does not
        have to transfer again.
        """
        installed = install_state(self.replica, state)
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
        """Close the WAL. ``hard=True`` models SIGKILL: drop the buffer."""
        self._archive.close()
        if self._wal is None:
            return
        if hard:
            self._wal.abandon()
        else:
            self._wal.close()
        self._wal = None


def _fingerprint(inner: Any) -> Tuple:
    """The safety-critical slice of one slot's consensus state."""
    return (
        inner.bal,
        inner.vbal,
        inner.val,
        inner.initial_val,
        tuple(sorted(inner._sent_twoa)),
    )


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


def install_state(replica: Any, state: Dict[str, Any]) -> int:
    """Graft a serialized peer state onto *replica* if it is ahead.

    Safe because decided logs are prefix-consistent across replicas: if
    the peer's applied frontier is beyond ours, its applied command log
    is an extension of ours, so replacing the store wholesale and jumping
    the frontier preserves every local observation. Local slot machinery
    below the new frontier is truncated (its races are already settled;
    any of our uncommitted commands are re-queued by the truncation).
    """
    upto = state["applied_upto"]
    if upto <= replica.applied_upto:
        return 0
    before = len(replica.store.log)
    replica.restore_store(state["store"], upto)
    for slot in sorted(state["decided_tail"]):
        replica.restore_decided(slot, state["decided_tail"][slot])
    replica.truncate_below(replica.applied_upto)
    return len(replica.store.log) - before


async def fetch_snapshot(
    address: Tuple[str, int],
    codec: Any,
    client_id: str = "snapshot-fetch",
    from_slot: int = 0,
    timeout: float = 10.0,
) -> Optional[Dict[str, Any]]:
    """Pull one peer's live replica state over the client-link protocol.

    Returns the decoded state tree, or ``None`` when the peer does not
    host an SMR replica. Raises ``OSError``/``asyncio.TimeoutError``/
    ``CodecError`` on transport problems — callers iterate peers and
    tolerate individual failures.
    """
    from ..net.codec import WIRE_VERSION_JSON, read_frame
    from ..net.wire import ClientHello, SnapshotChunk, SnapshotRequest

    request_id = f"{client_id}:{uuid.uuid4().hex[:8]}"
    reader, writer = await asyncio.wait_for(asyncio.open_connection(*address), timeout)
    try:
        # Control-plane conversation: stay on v1 end to end (the hello
        # announces nothing, so the server answers in JSON too).
        writer.write(codec.encode(ClientHello(client_id), WIRE_VERSION_JSON))
        writer.write(
            codec.encode(
                SnapshotRequest(request_id=request_id, from_slot=from_slot),
                WIRE_VERSION_JSON,
            )
        )
        await writer.drain()
        parts: List[str] = []
        while True:
            frame = await asyncio.wait_for(read_frame(reader, codec), timeout)
            if not isinstance(frame, SnapshotChunk) or frame.request_id != request_id:
                continue
            if frame.upto < 0:
                return None  # peer hosts no replica
            parts.append(frame.payload)
            if frame.last:
                break
        return deserialize_replica_state(codec, "".join(parts))
    finally:
        try:
            writer.close()
        except Exception:
            pass


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
    :func:`fetch_snapshot` (the PR-5 snapshot-transfer frames), but the
    request names a hash-slot range and the stream carries a range
    document. Returns ``None`` when the peer hosts no replica.
    """
    from ..net.codec import WIRE_VERSION_JSON, read_frame
    from ..net.wire import ClientHello, RangeSnapshotRequest, SnapshotChunk
    from .snapshot import deserialize_range_state

    request_id = f"{client_id}:{uuid.uuid4().hex[:8]}"
    reader, writer = await asyncio.wait_for(asyncio.open_connection(*address), timeout)
    try:
        writer.write(codec.encode(ClientHello(client_id), WIRE_VERSION_JSON))
        writer.write(
            codec.encode(
                RangeSnapshotRequest(request_id=request_id, lo=lo, hi=hi, slots=slots),
                WIRE_VERSION_JSON,
            )
        )
        await writer.drain()
        parts: List[str] = []
        while True:
            frame = await asyncio.wait_for(read_frame(reader, codec), timeout)
            if not isinstance(frame, SnapshotChunk) or frame.request_id != request_id:
                continue
            if frame.upto < 0:
                return None  # peer hosts no replica
            parts.append(frame.payload)
            if frame.last:
                break
        return deserialize_range_state(codec, "".join(parts))
    finally:
        try:
            writer.close()
        except Exception:
            pass


def range_state_chunks(
    codec: Any, replica: Any, request_id: str, lo: int, hi: int, slots: int
) -> List[Any]:
    """Serve side of range transfer: serialize + chunk one slot range."""
    from ..net.wire import SnapshotChunk
    from .snapshot import serialize_range_state

    text = serialize_range_state(codec, replica, lo, hi, slots)
    return _chunked(text, request_id, replica.applied_upto)


def _chunked(text: str, request_id: str, upto: int) -> List[Any]:
    from ..net.wire import SnapshotChunk

    chunks = []
    total = max(1, (len(text) + TRANSFER_CHUNK_CHARS - 1) // TRANSFER_CHUNK_CHARS)
    for seq in range(total):
        part = text[seq * TRANSFER_CHUNK_CHARS : (seq + 1) * TRANSFER_CHUNK_CHARS]
        chunks.append(
            SnapshotChunk(
                request_id=request_id,
                seq=seq,
                last=seq == total - 1,
                upto=upto,
                payload=part,
            )
        )
    return chunks


def snapshot_chunks(codec: Any, replica: Any, request_id: str) -> List[Any]:
    """Serve side of state transfer: serialize + chunk a live replica."""
    text = serialize_replica_state(codec, replica)
    return _chunked(text, request_id, replica.applied_upto)


def inspect_data_dir(root: pathlib.Path, codec: Any) -> List[Dict[str, Any]]:
    """Offline summary of every node directory under *root*.

    Powers ``python -m repro recover``: per node, the applied-log
    archive's valid extent, the retained images and whether the archive
    covers the prefix each one names, each WAL segment's record count and
    torn-tail status, and the highest slot any record mentions — without
    constructing a replica.
    """
    rows: List[Dict[str, Any]] = []
    root = pathlib.Path(root)
    for node_dir in sorted(root.glob("node-*")):
        if not node_dir.is_dir():
            continue
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
                image = read_image(info)
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
        decisions = 0
        slot_states = 0
        torn = 0
        max_slot = -1
        segments = []
        for segment in list_segments(node_dir):
            result = scan_segment(segment)
            if result.torn:
                torn += 1
            for payload in result.payloads:
                record = decode_record(codec, payload)
                if isinstance(record, WalDecision):
                    decisions += 1
                    max_slot = max(max_slot, record.slot)
                elif isinstance(record, WalSlotState):
                    slot_states += 1
                    max_slot = max(max_slot, record.slot)
            segments.append(
                {
                    "file": segment.name,
                    "records": len(result.payloads),
                    "bytes": result.good_bytes,
                    "torn_tail": result.torn,
                }
            )
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
                "meta": NodeStorage(root, int(node_dir.name.split("-", 1)[1])).read_meta()
                if node_dir.name.split("-", 1)[1].isdigit()
                else {},
            }
        )
    return rows


__all__ = [
    "NodeStorage",
    "RecoveryError",
    "RecoveryResult",
    "ReplicaPersister",
    "TRANSFER_CHUNK_CHARS",
    "fetch_snapshot",
    "inspect_data_dir",
    "install_state",
    "snapshot_chunks",
]
