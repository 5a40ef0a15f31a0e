"""Replica snapshots: a small image over an append-only applied-log archive.

A snapshot captures everything a restarted :class:`~repro.smr.log.SMRReplica`
needs to resume below its applied frontier. It is two artifacts, so that
taking one costs O(live state + commands applied since the last one),
never O(history):

* the **image**, ``snapshot-<upto>-<walseq>.snap`` — the ``KVStore`` map,
  the applied frontier, any decided-but-unapplied tail slots, and the
  prefix ``(log_entries, archive_bytes)`` of the archive it stands on.
  ``upto`` is the applied frontier covered, ``walseq`` the first WAL
  segment whose records postdate the snapshot. Written through the atomic
  temp-then-rename helper with fsync, so a crash mid-snapshot leaves the
  previous image intact and retention never sees a partial file.
* the **applied-log archive**, one ``applied.arc`` per node — the applied
  command log (the cross-replica convergence witness), append-only, in
  the WAL's CRC framing; each record is one codec payload holding a tuple
  of consecutive commands. A snapshot appends only the commands applied
  since the previous one, and the archive is synced *before* the image
  that names the new prefix is renamed into place, so an image on disk
  always finds its prefix; an older retained image stays valid because
  the archive only grows.

The applied-id set is in neither: it is a function of the log and
``KVStore.from_state`` rebuilds it.

:func:`serialize_replica_state` is the one-document form of the same
state (log included) for live state *transfer* over
``SnapshotRequest``/``SnapshotChunk`` — the receiver may hold nothing.
State is rendered through the wire codec, so commands, batches, and
``BOTTOM`` round-trip bit-exactly and a document written by one node
decodes on any other.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import ReproError
from ..obs import Observability, NULL_OBS
from .files import atomic_write_text
from .wal import HEADER_BYTES, pack_record, scan_records

#: Bumped on incompatible snapshot tree changes. 2: the applied log left
#: the snapshot file for the archive, and ``applied_ids`` is derived.
SNAPSHOT_FORMAT = 2

ARCHIVE_NAME = "applied.arc"

#: Commands per archive record: bounds a record's size however large the
#: delta (a state transfer into an empty node archives the whole log).
ARCHIVE_CHUNK = 4096

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{12})-(\d{8})\.snap$")


class SnapshotError(ValueError):
    """A snapshot image (or the archive prefix it names) is unusable."""


@dataclass(frozen=True)
class SnapshotInfo:
    """One snapshot image's identity, parsed from its name."""

    path: pathlib.Path
    upto: int  #: applied frontier covered (next slot awaiting application)
    wal_seq: int  #: first WAL segment with records newer than this snapshot


def snapshot_name(upto: int, wal_seq: int) -> str:
    return f"snapshot-{upto:012d}-{wal_seq:08d}.snap"


def list_snapshots(directory: pathlib.Path) -> List[SnapshotInfo]:
    """All snapshot images under *directory*, oldest first."""
    found = []
    for path in directory.glob("snapshot-*.snap"):
        match = _SNAPSHOT_RE.match(path.name)
        if match:
            found.append(
                SnapshotInfo(
                    path=path, upto=int(match.group(1)), wal_seq=int(match.group(2))
                )
            )
    found.sort(key=lambda info: (info.upto, info.wal_seq))
    return found


# ----------------------------------------------------------------------
# The applied-log archive.
# ----------------------------------------------------------------------


class AppliedLogArchive:
    """Writer for one node's applied command log on disk.

    ``entries``/``size`` name the prefix written so far — what the next
    image records. :meth:`open_at` must run before :meth:`append`.
    """

    def __init__(
        self, path: pathlib.Path, fsync: bool = True, obs: Observability = NULL_OBS
    ) -> None:
        self.path = pathlib.Path(path)
        self.fsync = fsync
        self.obs = obs
        self.entries = 0
        self.size = 0
        self._file: Optional[Any] = None

    def open_at(self, entries: int, size: int) -> None:
        """Cut the file back to the prefix ``(entries, size)`` and open it.

        Recovery calls this with the prefix the loaded image names (or
        ``(0, 0)`` without one): whatever follows is a delta whose image
        never landed, possibly torn, and the WAL still holds its commands.
        """
        self._file = open(self.path, "ab")
        self._file.truncate(size)
        self.entries = entries
        self.size = size

    def append(self, codec: Any, commands: Sequence[Any]) -> None:
        """Write *commands* behind the current prefix and sync them."""
        assert self._file is not None, "open_at() must run before append()"
        records = [
            pack_record(codec.encode_payload(tuple(commands[start : start + ARCHIVE_CHUNK])))
            for start in range(0, len(commands), ARCHIVE_CHUNK)
        ]
        if not records:
            return
        blob = b"".join(records)
        self._file.write(blob)
        self._file.flush()
        registry = self.obs.registry
        if self.fsync:
            os.fsync(self._file.fileno())
            registry.inc("storage.archive_fsyncs")
        self.entries += len(commands)
        self.size += len(blob)
        registry.inc("storage.archive_appends", len(records))
        registry.inc("storage.archive_bytes", len(blob))

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def scan_archive(
    path: pathlib.Path, codec: Any, size: int = -1
) -> Iterator[Tuple[Tuple[Any, ...], int]]:
    """``(commands, end_offset)`` per valid record in the first *size* bytes
    (the whole file by default).

    Stops at the first record that is torn, fails its CRC, or does not
    decode to a tuple — like a WAL scan, damage truncates, never raises.
    A missing file is an empty archive.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read(size)
    except FileNotFoundError:
        return
    end = 0
    for payload in scan_records(data).payloads:
        try:
            commands = codec.decode_payload(payload)
        except ReproError:
            return
        if not isinstance(commands, tuple):
            return
        end += HEADER_BYTES + len(payload)
        yield commands, end


def read_archive_prefix(
    path: pathlib.Path, codec: Any, entries: int, size: int
) -> List[Any]:
    """Exactly the commands of the prefix ``(entries, size)``.

    Raises :class:`SnapshotError` unless the archive holds *entries*
    commands in whole records ending at byte *size* — a short, torn or
    foreign archive must never yield a silently short log.
    """
    log: List[Any] = []
    end = 0
    for commands, end in scan_archive(path, codec, size):
        log.extend(commands)
    if end != size or len(log) != entries:
        raise SnapshotError(
            f"archive {path.name} holds {len(log)} command(s) in {end} valid "
            f"byte(s) of the prefix ({entries} command(s), {size} byte(s)) named"
        )
    return log


# ----------------------------------------------------------------------
# Images and the transfer document.
# ----------------------------------------------------------------------


def _decided_tail(replica: Any) -> Dict[int, Any]:
    return {
        slot: value
        for slot, value in replica.decided.items()
        if slot >= replica.applied_upto
    }


def _check_format(tree: Any, what: str) -> None:
    fmt = tree.get("format") if isinstance(tree, dict) else None
    if fmt != SNAPSHOT_FORMAT:
        raise SnapshotError(f"{what} format {fmt!r}, expected {SNAPSHOT_FORMAT}")


def serialize_replica_state(codec: Any, replica: Any) -> str:
    """Render *replica*'s durable state, log included, as one JSON document.

    What a peer serving ``SnapshotRequest`` ships: its *current* state,
    complete, because the receiver may be empty. O(history) — the on-disk
    snapshot (:func:`write_snapshot`) is the O(delta) form.
    """
    tree = {
        "format": SNAPSHOT_FORMAT,
        "applied_upto": replica.applied_upto,
        "store": codec.to_jsonable(replica.store.snapshot_state()),
        "decided_tail": codec.to_jsonable(_decided_tail(replica)),
        "log_entries": len(replica.store.log),
    }
    return json.dumps(tree, separators=(",", ":"), sort_keys=True)


def deserialize_replica_state(codec: Any, text: str) -> Dict[str, Any]:
    """Parse a :func:`serialize_replica_state` document into Python state.

    Returns ``{"applied_upto", "store", "decided_tail", "log_entries"}``
    with fully decoded values (commands, batches).
    """
    tree = json.loads(text)
    _check_format(tree, "replica-state")
    return {
        "applied_upto": int(tree["applied_upto"]),
        "store": codec.from_jsonable(tree["store"]),
        "decided_tail": codec.from_jsonable(tree["decided_tail"]),
        "log_entries": int(tree.get("log_entries", 0)),
    }


def serialize_range_state(
    codec: Any, replica: Any, lo: int, hi: int, slots: int
) -> str:
    """Render the state of hash-slot range ``[lo, hi)`` as one document.

    The rebalance transfer leg: extracts the keys whose slot (under a
    *slots*-slot ring) falls in the range, plus the applied ids of every
    logged command that touched those keys. Shard metadata and reserved
    ``__``-prefixed keys never move — they are control-plane state of the
    group, not of the range. Only meaningful after the range was fenced
    at the serving replica: the fence refuses further range applies, so
    the extracted document is final no matter when it is taken.
    """
    from ..smr.kvstore import key_slot

    def in_range(key: str) -> bool:
        return bool(key) and not key.startswith("__") and lo <= key_slot(key, slots) < hi

    data = {key: value for key, value in replica.store.data.items() if in_range(key)}
    applied_ids = sorted(
        command.command_id
        for command in replica.store.log
        if command.op in ("get", "put", "cas") and in_range(command.key)
    )
    tree = {
        "format": SNAPSHOT_FORMAT,
        "kind": "range",
        "lo": lo,
        "hi": hi,
        "slots": slots,
        "data": codec.to_jsonable(data),
        "applied_ids": applied_ids,
    }
    return json.dumps(tree, separators=(",", ":"), sort_keys=True)


def deserialize_range_state(codec: Any, text: str) -> Dict[str, Any]:
    """Parse a :func:`serialize_range_state` document."""
    tree = json.loads(text)
    fmt = tree.get("format")
    if fmt != SNAPSHOT_FORMAT or tree.get("kind") != "range":
        raise ValueError(
            f"range-state format {fmt!r}/{tree.get('kind')!r}, "
            f"expected {SNAPSHOT_FORMAT}/'range'"
        )
    return {
        "lo": int(tree["lo"]),
        "hi": int(tree["hi"]),
        "slots": int(tree["slots"]),
        "data": codec.from_jsonable(tree["data"]),
        "applied_ids": list(tree["applied_ids"]),
    }


def write_snapshot(
    directory: pathlib.Path,
    codec: Any,
    replica: Any,
    wal_seq: int,
    archive: AppliedLogArchive,
) -> SnapshotInfo:
    """Persist *replica*'s state: archive the new log tail, then the image.

    The order is the crash-safety argument: the archive is synced before
    the image naming its new prefix becomes visible, so a crash in
    between leaves an orphan tail (cut off by the next recovery), never
    an image without its log.
    """
    log = replica.store.log
    if archive.entries > len(log):
        raise SnapshotError(
            f"archive {archive.path.name} holds {archive.entries} command(s), "
            f"the applied log only {len(log)}"
        )
    archive.append(codec, log[archive.entries :])
    tree = {
        "format": SNAPSHOT_FORMAT,
        "applied_upto": replica.applied_upto,
        "data": codec.to_jsonable(replica.store.data),
        "decided_tail": codec.to_jsonable(_decided_tail(replica)),
        "log_entries": archive.entries,
        "archive_bytes": archive.size,
    }
    text = json.dumps(tree, separators=(",", ":"), sort_keys=True)
    path = directory / snapshot_name(replica.applied_upto, wal_seq)
    atomic_write_text(path, text, durable=True)
    archive.obs.registry.gauge("storage.snapshot_bytes").set(len(text))
    return SnapshotInfo(path=path, upto=replica.applied_upto, wal_seq=wal_seq)


def read_image(info: SnapshotInfo) -> Dict[str, Any]:
    """One image's JSON tree, format checked; values still codec-tagged.

    Raises :class:`SnapshotError` for a file that does not parse, is not
    format :data:`SNAPSHOT_FORMAT`, or lacks the archive prefix fields.
    """
    try:
        tree = json.loads(info.path.read_text())
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"{info.path.name}: unreadable image: {exc}") from None
    _check_format(tree, f"{info.path.name}: snapshot")
    try:
        tree["log_entries"] = int(tree["log_entries"])
        tree["archive_bytes"] = int(tree["archive_bytes"])
        tree["applied_upto"] = int(tree["applied_upto"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"{info.path.name}: malformed image: {exc!r}") from None
    return tree


def load_snapshot(codec: Any, info: SnapshotInfo) -> Dict[str, Any]:
    """Decode one image together with the archive prefix it names.

    Returns the same shape as :func:`deserialize_replica_state` plus
    ``archive_bytes``. Raises :class:`SnapshotError` if either half is
    unusable.
    """
    tree = read_image(info)
    log = read_archive_prefix(
        info.path.parent / ARCHIVE_NAME, codec, tree["log_entries"], tree["archive_bytes"]
    )
    try:
        data = codec.from_jsonable(tree["data"])
        decided_tail = codec.from_jsonable(tree["decided_tail"])
    except (ReproError, KeyError, TypeError) as exc:
        raise SnapshotError(f"{info.path.name}: malformed image: {exc!r}") from None
    return {
        "applied_upto": tree["applied_upto"],
        "store": {"data": data, "log": log},
        "decided_tail": decided_tail,
        "log_entries": tree["log_entries"],
        "archive_bytes": tree["archive_bytes"],
    }


__all__ = [
    "ARCHIVE_NAME",
    "AppliedLogArchive",
    "SNAPSHOT_FORMAT",
    "SnapshotError",
    "SnapshotInfo",
    "deserialize_range_state",
    "deserialize_replica_state",
    "list_snapshots",
    "load_snapshot",
    "read_archive_prefix",
    "read_image",
    "scan_archive",
    "serialize_range_state",
    "serialize_replica_state",
    "snapshot_name",
    "write_snapshot",
]
