"""The storage writer thread: ticket order, coalescing, fail-stop, join.

:class:`~repro.storage.writer.StorageWriter` is the one place a node
waits for its disk. These tests pin what the rest of the stack relies
on: jobs run in the order their tickets were handed out, writes queued
behind a busy thread to the same file land as one ``write`` and one
``fsync``, reports reach the submitting thread only through
``collect``/``drain``, a failed job stops everything behind it, and
``stop`` (hence a persister's ``close``) leaves no thread behind.
"""

import threading

import pytest

from repro.obs import Observability
from repro.smr.log import SMRReplica
from repro.storage import NodeStorage, ReplicaPersister
from repro.storage import writer as writer_module
from repro.storage.writer import WRITER_THREAD_NAME, StorageWriter


def _blocked(writer):
    """Occupy *writer*'s thread until the returned event is set."""
    release = threading.Event()
    writer.call(release.wait)
    return release


def _threads(name):
    return [thread for thread in threading.enumerate() if thread.name == name]


class TestTickets:
    def test_jobs_run_in_ticket_order_and_report_on_collect(self):
        writer = StorageWriter("writer-order")
        ran, reported = [], []
        release = _blocked(writer)
        tickets = [
            writer.call(lambda i=i: ran.append(i) or i, reported.append) for i in range(4)
        ]
        assert tickets == [2, 3, 4, 5] and writer.issued == 5
        assert writer.durable == 0 and reported == []
        release.set()
        assert writer.drain() == 5
        assert ran == reported == [0, 1, 2, 3]
        writer.stop()

    def test_queued_writes_to_one_file_coalesce(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(writer_module.os, "fsync", synced.append)
        writer = StorageWriter("writer-coalesce")
        reports = []
        with open(tmp_path / "f", "wb") as handle:
            release = _blocked(writer)
            for blob in (b"a", b"b", b"c"):
                writer.write(handle, blob, True, reports.append)
            release.set()
            writer.drain()
        assert (tmp_path / "f").read_bytes() == b"abc"
        assert len(synced) == 1 and len(reports) == 1  # one write, one fsync
        assert reports[0] >= 0.0
        writer.stop()

    def test_a_failed_job_stops_everything_behind_it(self):
        writer = StorageWriter("writer-fail")
        ran = []
        release = _blocked(writer)

        def boom():
            raise OSError("disk full")

        writer.call(boom)
        writer.call(lambda: ran.append("late"))
        release.set()
        with pytest.raises(OSError, match="disk full"):
            writer.drain()
        assert ran == [] and writer.durable == 1 < writer.issued
        assert isinstance(writer.failure, OSError)
        writer.stop()

    def test_notify_fires_once_per_uncollected_batch(self):
        writer = StorageWriter("writer-notify")
        pokes = []
        writer.notify = lambda: pokes.append(1)
        release = _blocked(writer)
        writer.call(lambda: None)
        release.set()
        writer.drain()
        assert len(pokes) == 1
        writer.call(lambda: None)
        writer.drain()
        assert len(pokes) == 2
        writer.stop()


class TestStop:
    def test_stop_runs_what_is_queued_then_joins(self):
        writer = StorageWriter("writer-stop")
        ran = []
        release = _blocked(writer)
        writer.call(lambda: ran.append(1))
        release.set()
        writer.stop()
        assert ran == [1] and writer.durable == 2
        assert _threads("writer-stop") == []
        with pytest.raises(ValueError):
            writer.call(lambda: None)
        writer.stop()  # idempotent

    @pytest.mark.parametrize("hard", [False, True])
    def test_persister_close_joins_its_writer(self, tmp_path, hard):
        replica = SMRReplica(0, 5, 2, 2)
        obs = Observability(node=0)
        persister = ReplicaPersister(
            NodeStorage(tmp_path, 0), replica, None, obs=obs, fsync=True
        )
        name = f"{WRITER_THREAD_NAME} {persister.storage.dir}"
        assert len(_threads(name)) == 1
        persister.close(hard=hard)
        assert _threads(name) == []
