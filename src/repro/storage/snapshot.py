"""Replica snapshots: a small image over an append-only applied-log archive.

A snapshot captures everything a restarted :class:`~repro.smr.log.SMRReplica`
needs to resume below its applied frontier. It is two artifacts, so that
taking one costs O(live state + commands applied since the last one),
never O(history):

* the **image**, ``snapshot-<upto>-<walseq>.snap`` — one codec payload
  holding a dict: the ``KVStore`` map, the applied frontier, any
  decided-but-unapplied tail slots, and the prefix
  ``(log_entries, archive_bytes)`` of the archive it stands on.
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

State *transfer* ships the same image (:func:`render_image` renders
both) with the log suffix the receiver lacks in place of the archive
prefix (:func:`transfer_image`), and one decoder reads both
(:func:`decode_image`). Images, transfer images and range documents are
all v2 codec payloads, so commands, batches, and ``BOTTOM`` round-trip
bit-exactly on any node with the same registry.
"""

from __future__ import annotations

import pathlib
import re
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.errors import ReproError
from ..obs import Observability, NULL_OBS
from ..smr.kvstore import KVCommand, key_slot
from .files import atomic_write_bytes
from .wal import HEADER_BYTES, pack_record, scan_records
from .writer import StorageWriter

#: Bumped on incompatible image changes. 2: the applied log left the
#: snapshot file for the archive, and ``applied_ids`` is derived. 3: the
#: image is a v2 codec payload instead of JSON text.
SNAPSHOT_FORMAT = 3

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

    ``entries``/``size`` name the prefix handed to *writer* so far — what
    the next image records; the image is queued behind the append, so it
    never lands before its prefix. :meth:`open_at` must run before
    :meth:`append`.
    """

    def __init__(
        self,
        path: pathlib.Path,
        writer: StorageWriter,
        fsync: bool = True,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.path = pathlib.Path(path)
        self.writer = writer
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
        """Encode *commands* here; queue their write + fsync on the writer."""
        assert self._file is not None, "open_at() must run before append()"
        records = [
            pack_record(codec.encode_payload(tuple(commands[start : start + ARCHIVE_CHUNK])))
            for start in range(0, len(commands), ARCHIVE_CHUNK)
        ]
        if not records:
            return
        blob = b"".join(records)
        self.writer.write(self._file, blob, self.fsync, self._synced)
        self.entries += len(commands)
        self.size += len(blob)
        registry = self.obs.registry
        registry.inc("storage.archive_appends", len(records))
        registry.inc("storage.archive_bytes", len(blob))

    def _synced(self, seconds: Optional[float]) -> None:
        if seconds is not None:
            self.obs.registry.inc("storage.archive_fsyncs")

    def close(self) -> None:
        if self._file is not None:
            self.writer.call(self._file.close)
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
# The image, on disk and on the wire.
# ----------------------------------------------------------------------


def _parse(codec: Any, blob: bytes, what: str) -> Dict[str, Any]:
    try:
        tree = codec.decode_payload(blob)
    except ReproError as exc:
        raise SnapshotError(f"{what}: not a format-{SNAPSHOT_FORMAT} document: {exc}") from None
    fmt = tree.get("format") if isinstance(tree, dict) else None
    if fmt != SNAPSHOT_FORMAT:
        raise SnapshotError(f"{what}: format {fmt!r}, expected {SNAPSHOT_FORMAT}")
    return tree


def render_image(codec: Any, replica: Any, **log: Any) -> bytes:
    """*replica*'s image as one codec payload, for disk and wire alike:
    the map, the frontier, the decided tail, and *log* — the fields that
    say where the applied log comes from."""
    upto = replica.applied_upto
    tail = {slot: value for slot, value in replica.decided.items() if slot >= upto}
    fields = dict(applied_upto=upto, data=replica.store.data, decided_tail=tail, **log)
    return codec.encode_payload(dict(format=SNAPSHOT_FORMAT, **fields))


def transfer_image(codec: Any, replica: Any, base: int) -> bytes:
    """The image for a receiver holding *base* log entries: O(live + delta).

    The log travels as ``suffix`` = ``log[base:]`` behind ``anchor``, the
    command id of entry ``base - 1`` (``None`` for *base* 0: the whole log).
    """
    log = replica.store.log
    base = max(0, min(base, len(log)))
    return render_image(
        codec,
        replica,
        log_entries=len(log),
        anchor=log[base - 1].command_id if base else None,
        suffix=log[base:],
    )


def decode_image(codec: Any, blob: bytes, what: str, on_disk: bool) -> Dict[str, Any]:
    """The one decoder of an image, read from disk or off the wire.

    Returns the image's fields decoded: ``archive_bytes`` for a disk
    image, ``anchor`` and ``suffix`` (commands) for a transfer image.
    Raises only :class:`SnapshotError`.
    """
    tree = _parse(codec, blob, f"{what}: snapshot")
    try:
        image = {
            "applied_upto": int(tree["applied_upto"]),
            "log_entries": int(tree["log_entries"]),
            "data": dict(tree["data"]),
            "decided_tail": dict(tree["decided_tail"]),
        }
        if on_disk:
            image["archive_bytes"] = int(tree["archive_bytes"])
        else:
            image["anchor"] = tree["anchor"]
            image["suffix"] = list(tree["suffix"])
            if not all(type(command) is KVCommand for command in image["suffix"]):
                raise TypeError("suffix holds a non-command")
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"{what}: malformed image: {exc!r}") from None
    return image


def serialize_range_state(
    codec: Any, replica: Any, lo: int, hi: int, slots: int
) -> bytes:
    """Render the state of hash-slot range ``[lo, hi)`` as one codec payload.

    The rebalance transfer leg: extracts the keys whose slot (under a
    *slots*-slot ring) falls in the range, plus the applied ids of every
    logged command that touched those keys. Shard metadata and reserved
    ``__``-prefixed keys never move — they are control-plane state of the
    group, not of the range. Only meaningful after the range was fenced
    at the serving replica: the fence refuses further range applies, so
    the extracted document is final no matter when it is taken.
    """

    def in_range(key: str) -> bool:
        return bool(key) and not key.startswith("__") and lo <= key_slot(key, slots) < hi

    data = {key: value for key, value in replica.store.data.items() if in_range(key)}
    applied_ids = sorted(
        command.command_id
        for command in replica.store.log
        if command.op in ("get", "put", "cas") and in_range(command.key)
    )
    fields = dict(lo=lo, hi=hi, slots=slots, data=data, applied_ids=applied_ids)
    return codec.encode_payload(dict(format=SNAPSHOT_FORMAT, kind="range", **fields))


def deserialize_range_state(codec: Any, blob: bytes) -> Dict[str, Any]:
    """Parse a :func:`serialize_range_state` document."""
    tree = _parse(codec, blob, "range-state")
    if tree.get("kind") != "range":
        raise SnapshotError(f"range-state: kind {tree.get('kind')!r}, expected 'range'")
    return {
        "lo": int(tree["lo"]),
        "hi": int(tree["hi"]),
        "slots": int(tree["slots"]),
        "data": tree["data"],
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

    Both are rendered here and written by the archive's writer, in that
    order. The order is the crash-safety argument: the archive is synced
    before the image naming its new prefix becomes visible, so a crash in
    between leaves an orphan tail (cut off by the next recovery), never
    an image without its log. Returns once both are queued.
    """
    log = replica.store.log
    if archive.entries > len(log):
        raise SnapshotError(
            f"archive {archive.path.name} holds {archive.entries} command(s), "
            f"the applied log only {len(log)}"
        )
    archive.append(codec, log[archive.entries :])
    blob = render_image(
        codec, replica, log_entries=archive.entries, archive_bytes=archive.size
    )
    path = directory / snapshot_name(replica.applied_upto, wal_seq)
    archive.writer.call(partial(atomic_write_bytes, path, blob, durable=True))
    archive.obs.registry.gauge("storage.snapshot_bytes").set(len(blob))
    return SnapshotInfo(path=path, upto=replica.applied_upto, wal_seq=wal_seq)


def read_image(codec: Any, info: SnapshotInfo) -> Dict[str, Any]:
    """One image on disk, decoded by :func:`decode_image`."""
    try:
        blob = info.path.read_bytes()
    except OSError as exc:
        raise SnapshotError(f"{info.path.name}: unreadable image: {exc}") from None
    return decode_image(codec, blob, info.path.name, on_disk=True)


def load_snapshot(codec: Any, info: SnapshotInfo) -> Dict[str, Any]:
    """One image plus ``log``, the archive prefix it names.

    Raises :class:`SnapshotError` if either half is unusable.
    """
    image = read_image(codec, info)
    prefix = (image["log_entries"], image["archive_bytes"])
    image["log"] = read_archive_prefix(info.path.parent / ARCHIVE_NAME, codec, *prefix)
    return image


__all__ = [
    "ARCHIVE_NAME",
    "AppliedLogArchive",
    "SNAPSHOT_FORMAT",
    "SnapshotError",
    "SnapshotInfo",
    "decode_image",
    "deserialize_range_state",
    "list_snapshots",
    "load_snapshot",
    "read_archive_prefix",
    "read_image",
    "render_image",
    "scan_archive",
    "serialize_range_state",
    "snapshot_name",
    "transfer_image",
    "write_snapshot",
]
