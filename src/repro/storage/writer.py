"""The storage writer: one thread per node for every blocking storage syscall.

The event loop never waits in the kernel for the disk. It renders what
must be written (WAL records, archive payloads, snapshot images) and
hands each piece to a :class:`StorageWriter` as a *job* carrying a
monotonic **ticket**; one thread runs the jobs in ticket order, so the
crash-safe order of a snapshot (archive, then image, then rotation, then
retention) is simply the order the loop submits them in. Consecutive
queued writes to the same file are coalesced into one ``write`` and one
``fsync`` — group commit across activations, for free while the previous
fsync is in flight.

The loop learns what is durable by *collecting*: the thread queues each
finished job's result and, when a ``notify`` hook is set (a live node
sets ``loop.call_soon_threadsafe``), pokes the loop once per batch of
completions. :meth:`StorageWriter.collect` then runs every job's
``report`` callback on the calling thread — that is where fsync
latencies and file counts reach the metrics registry — and advances
:attr:`StorageWriter.durable`. Offline callers (recovery, tests) block
in :meth:`StorageWriter.drain` instead. The thread itself touches no
registry and no codec, so everything it does is invisible to tracers
that assume one thread.

A failed job stops the thread: later jobs never run, ``durable`` stops
advancing, and whatever waits on it (a node's held frames) stays held —
fail-stop, never a frame ahead of its records. :meth:`drain` raises the
failure; :attr:`failure` exposes it to the loop.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

#: Every writer thread's name starts with this (then the directory it
#: serves), so a test or a debugger can tell them apart from loop threads.
WRITER_THREAD_NAME = "repro-storage-writer"

Report = Callable[[Any], None]


class _Job:
    __slots__ = ("ticket", "run", "report", "file", "blob", "fsync")

    def __init__(
        self,
        run: Optional[Callable[[], Any]] = None,
        report: Optional[Report] = None,
        file: Any = None,
        blob: bytes = b"",
        fsync: bool = False,
    ) -> None:
        self.ticket = 0
        self.run = run
        self.report = report
        self.file = file
        self.blob = blob
        self.fsync = fsync


class StorageWriter:
    """One thread running storage jobs in ticket order.

    :attr:`issued` and :attr:`durable` belong to the submitting thread:
    the last ticket handed out, and the last one whose completion
    :meth:`collect` has seen. ``durable < issued`` means some handed-off
    write is not on disk yet.
    """

    def __init__(self, name: str = WRITER_THREAD_NAME) -> None:
        self.issued = 0
        self.durable = 0
        #: Called on the writer thread after a batch of completions, at
        #: most once until the next :meth:`collect`; must be thread-safe.
        self.notify: Optional[Callable[[], None]] = None
        self.failure: Optional[BaseException] = None
        self._cond = threading.Condition()
        self._jobs: Deque[_Job] = deque()
        self._done: List[Tuple[int, Optional[Report], Any]] = []
        self._finished = 0
        self._notified = False
        self._closing = False
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    # Submitting thread.
    # ------------------------------------------------------------------

    def write(
        self, file: Any, blob: bytes, fsync: bool, report: Optional[Report] = None
    ) -> int:
        """Queue ``write`` + ``flush`` (+ ``fsync``) of *blob* to *file*.

        *report* gets the fsync's duration in seconds (``None`` without
        fsync) — once per coalesced group, from the group's first job.
        """
        return self._submit(_Job(report=report, file=file, blob=blob, fsync=fsync))

    def call(self, run: Callable[[], Any], report: Optional[Report] = None) -> int:
        """Queue ``run()`` (file I/O only); *report* gets its result."""
        return self._submit(_Job(run=run, report=report))

    def _submit(self, job: _Job) -> int:
        if self._closing:
            raise ValueError("storage writer is stopped")
        self.issued += 1
        job.ticket = self.issued
        with self._cond:
            self._jobs.append(job)
            self._cond.notify()
        return job.ticket

    @property
    def uncollected(self) -> bool:
        """Whether a job finished that :meth:`collect` has not seen yet
        (a lock-free peek: at worst it answers one completion late)."""
        return self._finished > self.durable

    def collect(self) -> int:
        """Run the reports of every finished job; returns :attr:`durable`."""
        with self._cond:
            done, self._done = self._done, []
            self._notified = False
        for ticket, report, result in done:
            if report is not None:
                report(result)
            self.durable = ticket
        return self.durable

    def drain(self) -> int:
        """Block until every job handed off so far has run, then collect.

        Raises the writer's failure, if it had one.
        """
        issued = self.issued
        with self._cond:
            while self._finished < issued and self.failure is None:
                self._cond.wait()
        durable = self.collect()
        if self.failure is not None:
            raise self.failure
        return durable

    def stop(self) -> None:
        """Run what is queued, end the thread, join it, collect.

        Idempotent. After it returns nothing writes to the directory.
        """
        with self._cond:
            self._closing = True
            self._cond.notify()
        self._thread.join()
        self.collect()

    # ------------------------------------------------------------------
    # Writer thread.
    # ------------------------------------------------------------------

    def _run(self) -> None:
        cond, jobs = self._cond, self._jobs
        while True:
            with cond:
                while not jobs and not self._closing:
                    cond.wait()
                if not jobs:
                    return
                first = jobs.popleft()
                last = first
                if first.file is not None:
                    blobs = [first.blob]
                    while jobs and jobs[0].file is first.file:
                        last = jobs.popleft()
                        blobs.append(last.blob)
            try:
                if first.file is None:
                    result = first.run()
                else:
                    result = _write(first.file, blobs, first.fsync)
            except BaseException as exc:
                with cond:
                    self.failure = exc
                    jobs.clear()
                    cond.notify_all()
                self._wake()
                return
            with cond:
                self._finished = last.ticket
                self._done.append((last.ticket, first.report, result))
                cond.notify_all()
                wake, self._notified = not self._notified, True
            if wake:
                self._wake()

    def _wake(self) -> None:
        notify = self.notify
        if notify is None:
            return
        try:
            notify()
        except RuntimeError:
            pass  # the loop closed under us: nobody is waiting any more


def _write(file: Any, blobs: List[bytes], fsync: bool) -> Optional[float]:
    """One write + flush (+ fsync) for a coalesced group; the fsync's seconds."""
    file.write(blobs[0] if len(blobs) == 1 else b"".join(blobs))
    file.flush()
    if not fsync:
        return None
    started = time.perf_counter()
    os.fsync(file.fileno())
    return time.perf_counter() - started


__all__ = ["StorageWriter", "WRITER_THREAD_NAME"]
