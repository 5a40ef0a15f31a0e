"""Append-only write-ahead log segments with CRC-framed binary records.

Record layout (all integers big-endian)::

    +--------------+--------------+------------------+
    | length (4B)  | crc32 (4B)   | payload (length) |
    +--------------+--------------+------------------+

``crc32`` covers the payload only, so a record is self-validating: a
scan accepts a record iff the full frame is present *and* the checksum
matches. Anything else — a header cut short, a length pointing past EOF,
a payload that fails its CRC — marks the **torn tail**: the prefix up to
that point is exactly the set of fully-written records, which is the
contract a crashed ``write()`` leaves behind on a POSIX file. Torn-tail
scans therefore never raise; corruption truncates, it does not poison.

Writes are group-committed: :meth:`WriteAheadLog.append` only buffers,
and :meth:`WriteAheadLog.commit` hands every buffered record, joined into
one blob, to the node's :class:`~repro.storage.writer.StorageWriter`,
whose thread does the ``write`` + ``fsync`` (coalescing commits that
queued up behind an fsync in flight). The caller (the replica persister)
commits once per activation; what depends on the records waits for the
commit's ticket to turn durable (see :mod:`repro.storage.recovery`).

A log directory holds numbered segment files (``wal-<seq>.log``). The
writer only ever *creates* segments — recovery scans old ones read-only
and rotation starts a fresh one — so append-after-truncate never happens.
"""

from __future__ import annotations

import pathlib
import re
import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..obs import Observability, NULL_OBS
from .writer import StorageWriter

#: length + crc32, both unsigned 32-bit big-endian.
_HEADER = struct.Struct(">II")
HEADER_BYTES = _HEADER.size

#: A record claiming more than this is treated as torn-tail corruption.
MAX_RECORD_BYTES = 16 * 1024 * 1024

_SEGMENT_RE = re.compile(r"^wal-(\d{8})\.log$")


def segment_name(seq: int) -> str:
    return f"wal-{seq:08d}.log"


def segment_seq(path: pathlib.Path) -> Optional[int]:
    """Segment sequence number of *path*, or ``None`` for foreign files."""
    match = _SEGMENT_RE.match(path.name)
    return int(match.group(1)) if match else None


def list_segments(directory: pathlib.Path) -> List[pathlib.Path]:
    """All WAL segments under *directory*, in sequence order."""
    found = [
        (seq, path)
        for path in directory.glob("wal-*.log")
        if (seq := segment_seq(path)) is not None
    ]
    return [path for _seq, path in sorted(found)]


def pack_record(payload: bytes) -> bytes:
    """One framed record: header + payload."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass(frozen=True)
class ScanResult:
    """Outcome of scanning one segment file."""

    payloads: Tuple[bytes, ...]
    good_bytes: int  #: offset of the first byte past the last valid record
    torn: bool  #: a partial/corrupt tail followed the valid prefix


def scan_records(data: bytes) -> ScanResult:
    """Every fully-written record at the head of *data*, tolerating a torn tail.

    Returns the longest prefix of valid records. Never raises on content:
    short headers, over-long lengths, short payloads, and CRC mismatches
    all simply end the scan (``torn=True``).
    """
    payloads: List[bytes] = []
    offset = 0
    while True:
        if offset + _HEADER.size > len(data):
            break
        length, crc = _HEADER.unpack_from(data, offset)
        if length > MAX_RECORD_BYTES:
            break
        end = offset + _HEADER.size + length
        if end > len(data):
            break
        payload = data[offset + _HEADER.size : end]
        if zlib.crc32(payload) != crc:
            break
        payloads.append(payload)
        offset = end
    return ScanResult(
        payloads=tuple(payloads), good_bytes=offset, torn=offset != len(data)
    )


def scan_segment(path: pathlib.Path) -> ScanResult:
    """:func:`scan_records` over one segment file."""
    return scan_records(path.read_bytes())


class WriteAheadLog:
    """One open segment: buffered appends, explicit group commits.

    ``fsync=False`` keeps the write+flush (the OS still sees every commit)
    but skips the ``os.fsync`` — the ``--no-fsync`` operating mode, whose
    cost difference ``tests/net/test_perf_smoke.py`` guards. *writer* is
    the node's storage thread, which does every write.
    """

    def __init__(
        self,
        path: pathlib.Path,
        seq: int,
        writer: StorageWriter,
        fsync: bool = True,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.path = pathlib.Path(path)
        self.seq = seq
        self.fsync = fsync
        self.obs = obs
        # Exclusive create: the writer never appends to a pre-existing
        # segment (recovery reads those; rotation always starts fresh).
        self._file = open(self.path, "xb")
        self.writer = writer
        self._pending: List[bytes] = []
        self._closed = False

    @classmethod
    def create(
        cls,
        directory: pathlib.Path,
        seq: int,
        writer: StorageWriter,
        fsync: bool = True,
        obs: Observability = NULL_OBS,
    ) -> "WriteAheadLog":
        directory.mkdir(parents=True, exist_ok=True)
        return cls(directory / segment_name(seq), seq, writer, fsync=fsync, obs=obs)

    @property
    def pending_records(self) -> int:
        return len(self._pending)

    def append(self, payload: bytes) -> None:
        """Buffer one record; durable only once the next :meth:`commit` is."""
        if self._closed:
            raise ValueError(f"WAL segment {self.path.name} is closed")
        if len(payload) > MAX_RECORD_BYTES:
            raise ValueError(
                f"WAL record of {len(payload)} bytes exceeds {MAX_RECORD_BYTES}"
            )
        self._pending.append(pack_record(payload))
        self.obs.registry.inc("storage.wal_appends")

    def commit(self) -> int:
        """Hand every buffered record to the writer; returns the count.

        One blob, hence at most one ``write`` and one ``fsync`` however
        many records were appended since the last commit — the
        group-commit batching that makes per-activation durability
        affordable. The records are durable once the writer's
        ``durable`` ticket reaches its ``issued`` one as of this call.
        """
        if not self._pending:
            return 0
        blob = b"".join(self._pending)
        count = len(self._pending)
        self._pending.clear()
        self.writer.write(self._file, blob, self.fsync, self._synced)
        self.obs.registry.inc("storage.wal_commits")
        self.obs.registry.inc("storage.wal_bytes", len(blob))
        return count

    def _synced(self, seconds: Optional[float]) -> None:
        """The writer's report of one coalesced write (on the loop)."""
        if seconds is not None:
            self.obs.registry.observe("storage.fsync_seconds", seconds)
            self.obs.registry.inc("storage.wal_fsyncs")

    def close(self) -> None:
        """Commit what is buffered, then close the segment."""
        if self._closed:
            return
        self.commit()
        self._closed = True
        self.writer.call(self._file.close)

    def abandon(self) -> None:
        """Close without committing — the kill -9 path in tests.

        Buffered (never-committed) records are dropped on the floor, exactly
        like process memory at SIGKILL; everything already committed stays.
        """
        self._pending.clear()
        self.close()


def replay_directory(directory: pathlib.Path) -> Tuple[List[bytes], int]:
    """Scan every segment in order; returns (payloads, torn segment count).

    Convenience for inspection paths; the live recovery walks segments
    itself so it can attribute records to segments in its report.
    """
    payloads: List[bytes] = []
    torn = 0
    for segment in list_segments(directory):
        result = scan_segment(segment)
        payloads.extend(result.payloads)
        torn += 1 if result.torn else 0
    return payloads, torn


def next_segment_seq(directory: pathlib.Path) -> int:
    """First unused segment number in *directory* (1-based)."""
    segments = list_segments(directory)
    if not segments:
        return 1
    last = segment_seq(segments[-1])
    return (last or 0) + 1


__all__ = [
    "HEADER_BYTES",
    "MAX_RECORD_BYTES",
    "ScanResult",
    "WriteAheadLog",
    "list_segments",
    "next_segment_seq",
    "pack_record",
    "replay_directory",
    "scan_records",
    "scan_segment",
    "segment_name",
    "segment_seq",
]
