"""Retention: bound a node's data directory after each snapshot.

The invariant that makes deletion safe: a snapshot covers every WAL
record in segments *older* than its ``wal_seq`` (rotation starts segment
``wal_seq`` immediately after the snapshot is on disk). So once the
policy decides which snapshots to keep, every segment below the oldest
kept snapshot's ``wal_seq`` is redundant — recovery from any retained
snapshot never needs it.

Keeping more than one snapshot image (default 2) is deliberate:
``ReplicaPersister.recover`` tries the retained images newest-first and
skips one that does not parse, has the wrong format, or names an archive
prefix that is not there (``storage.snapshot_fallbacks``), continuing
from the previous image plus the segments retained for *it*. If images
exist and none is usable it raises rather than replay the WAL alone —
the segments below the images are gone.

The applied-log archive is never trimmed here: every retained image
names a prefix of it, and it only grows.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import List

from .snapshot import list_snapshots
from .wal import list_segments, segment_seq


@dataclass
class RetentionPolicy:
    """Keep the newest *keep_snapshots* snapshots and the WAL they need."""

    keep_snapshots: int = 2

    def apply(self, directory: pathlib.Path) -> "RetentionReport":
        """Delete redundant snapshots/segments under *directory*."""
        report = RetentionReport()
        snapshots = list_snapshots(directory)
        keep = max(1, self.keep_snapshots)
        stale, kept = snapshots[:-keep], snapshots[-keep:]
        for info in stale:
            _unlink(info.path, report.deleted_snapshots)
        if not kept:
            return report  # no snapshot yet: every segment may be needed
        min_needed_seq = min(info.wal_seq for info in kept)
        for segment in list_segments(directory):
            seq = segment_seq(segment)
            if seq is not None and seq < min_needed_seq:
                _unlink(segment, report.deleted_segments)
        return report


@dataclass
class RetentionReport:
    deleted_snapshots: List[pathlib.Path] = field(default_factory=list)
    deleted_segments: List[pathlib.Path] = field(default_factory=list)

    @property
    def deleted(self) -> int:
        return len(self.deleted_snapshots) + len(self.deleted_segments)


def _unlink(path: pathlib.Path, done: List[pathlib.Path]) -> None:
    try:
        path.unlink()
    except OSError:
        return  # already gone / transient FS hiccup: retried next rotation
    done.append(path)


__all__ = ["RetentionPolicy", "RetentionReport"]
