"""Durability subsystem: WAL, snapshots, retention, and recovery.

``repro.storage`` gives the live runtime crash-*recovery* on top of the
model's crash-stop semantics. A node launched with a data directory
journals safety-critical consensus state to an append-only, CRC-framed,
group-commit-fsynced write-ahead log before externalizing it; rolls the
applied prefix into atomic snapshots (a small image over an append-only
applied-log archive) with WAL rotation and a retention policy; and on
restart rebuilds its replica from snapshot+WAL, then
catches up from a peer's live state over the wire
(``SnapshotRequest``/``SnapshotChunk``) instead of replaying history.

See ``docs/DURABILITY.md`` for the on-disk formats and the recovery
flow, and ``tests/net/test_crash_recovery.py`` for the end-to-end
kill → restart → rejoin → converge exercise.
"""

from .files import atomic_write_bytes, atomic_write_text
from .records import WalDecision, WalSlotState, decode_record, encode_record
from .recovery import (
    NodeStorage,
    RecoveryError,
    RecoveryResult,
    ReplicaPersister,
    fetch_range_state,
    fetch_snapshot,
    inspect_data_dir,
    install_image,
    transfer_chunks,
)
from .retention import RetentionPolicy, RetentionReport
from .snapshot import (
    AppliedLogArchive,
    SnapshotError,
    SnapshotInfo,
    deserialize_range_state,
    serialize_range_state,
    list_snapshots,
    load_snapshot,
    write_snapshot,
)
from .wal import WriteAheadLog, list_segments, pack_record, scan_segment

__all__ = [
    "AppliedLogArchive",
    "NodeStorage",
    "RecoveryError",
    "RecoveryResult",
    "ReplicaPersister",
    "RetentionPolicy",
    "RetentionReport",
    "SnapshotError",
    "SnapshotInfo",
    "WalDecision",
    "WalSlotState",
    "WriteAheadLog",
    "atomic_write_bytes",
    "atomic_write_text",
    "decode_record",
    "deserialize_range_state",
    "encode_record",
    "fetch_range_state",
    "fetch_snapshot",
    "inspect_data_dir",
    "install_image",
    "list_segments",
    "list_snapshots",
    "load_snapshot",
    "pack_record",
    "scan_segment",
    "serialize_range_state",
    "transfer_chunks",
    "write_snapshot",
]
