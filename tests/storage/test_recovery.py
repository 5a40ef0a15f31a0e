"""Snapshot round-trip, persister recovery cycle, retention, transfer.

These tests drive :class:`~repro.storage.recovery.ReplicaPersister`
against real :class:`~repro.smr.log.SMRReplica` instances entirely
offline (no event loop): journal → crash → recover must rebuild the
identical store, a snapshot must bound what the WAL replays, and what a
snapshot costs must depend on the commands applied since the last one,
not on history. Nothing here reads a clock.
"""

import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.codec import MessageCodec, make_codec
from repro.obs import Observability
from repro.smr.kvstore import BatchRef, CommandBatch, KVCommand
from repro.smr.log import SMRReplica
from repro.storage import (
    NodeStorage,
    RecoveryError,
    ReplicaPersister,
    RetentionPolicy,
    WalDecision,
    WalSlotState,
    decode_record,
    deserialize_replica_state,
    inspect_data_dir,
    install_state,
    list_segments,
    list_snapshots,
    scan_segment,
    serialize_replica_state,
)
from repro.storage import recovery as recovery_module
from repro.storage import snapshot as snapshot_module
from repro.storage.snapshot import ARCHIVE_NAME, snapshot_name
from repro.storage.wal import pack_record, segment_name

N, F, E = 5, 2, 2
CODEC = MessageCodec()
CODECS = {"json": make_codec("json"), "binary": make_codec("binary")}


def _replica(pid=0):
    return SMRReplica(pid, N, F, E)


def _command(slot, prefix="c"):
    return KVCommand(op="put", key=f"k{slot % 3}", value=slot, command_id=f"{prefix}{slot}")


def _decide(replica, slots):
    for slot in slots:
        assert replica.restore_decided(slot, _command(slot))


def _persister(tmp_path, replica, pid=0, codec=CODEC, **kwargs):
    kwargs.setdefault("fsync", False)
    kwargs.setdefault("snapshot_every", 10_000)
    storage = NodeStorage(tmp_path, pid)
    return ReplicaPersister(storage, replica, codec, **kwargs)


def _batch(slot, size=3):
    """A batch whose encoding has the same length for every slot < 10^5."""
    return CommandBatch(
        tuple(
            KVCommand(
                op="put",
                key=f"k{i}",
                value=f"{slot:05d}.{i}",
                command_id=f"b{slot:05d}.{i}",
            )
            for i in range(size)
        ),
        batch_id=f"__batch:0:{slot:05d}__",
    )


def _state(replica):
    store = replica.store
    return (list(store.log), dict(store.data), set(store.applied_ids))


def _wal_values(codec, segment):
    """``(slot, value)`` for every value field journaled in *segment*."""
    values = []
    for payload in scan_segment(segment).payloads:
        record = decode_record(codec, payload)
        values.append((record.slot, record.value))
        if isinstance(record, WalSlotState):
            values.append((record.slot, record.initial_value))
    return values


class TestSnapshotRoundTrip:
    def test_replica_state_round_trips(self):
        a = _replica()
        _decide(a, range(5))
        state = deserialize_replica_state(CODEC, serialize_replica_state(CODEC, a))
        assert state["applied_upto"] == 5
        assert state["log_entries"] == 5
        b = _replica(pid=1)
        b.restore_store(state["store"], state["applied_upto"])
        assert b.store.data == a.store.data
        assert b.store.applied_ids == a.store.applied_ids
        assert [c.command_id for c in b.store.log] == [
            c.command_id for c in a.store.log
        ]

    def test_decided_tail_survives(self):
        a = _replica()
        _decide(a, range(3))
        # Slot 4 decided but slot 3 missing: 4 stays in the unapplied tail.
        assert a.restore_decided(4, _command(4))
        assert a.applied_upto == 3
        state = deserialize_replica_state(CODEC, serialize_replica_state(CODEC, a))
        assert set(state["decided_tail"]) == {4}


class TestPersisterCycle:
    #: ``TestPersisterCycleBinary`` below reruns every test on the v2 codec.
    codec = CODECS["json"]

    def test_journal_crash_recover_rebuilds_the_store(self, tmp_path):
        a = _replica()
        persister = _persister(tmp_path, a, codec=self.codec)
        assert not persister.recover().recovered_anything
        _decide(a, range(5))
        persister.after_activation()
        persister.close()

        b = _replica()
        recovered = _persister(tmp_path, b, codec=self.codec).recover()
        assert recovered.snapshot is None
        assert recovered.replayed_entries == 5
        assert b.applied_upto == 5
        assert b.store.data == a.store.data
        assert [c.command_id for c in b.store.log] == [
            c.command_id for c in a.store.log
        ]

    def test_recovery_rolls_replay_into_a_snapshot(self, tmp_path):
        a = _replica()
        persister = _persister(tmp_path, a, codec=self.codec)
        persister.recover()
        _decide(a, range(4))
        persister.after_activation()
        persister.close()

        _persister(tmp_path, _replica(), codec=self.codec).recover()
        # The replayed WAL is consumed into a snapshot, so a third
        # incarnation restores from the snapshot and replays nothing.
        c = _replica()
        recovered = _persister(tmp_path, c, codec=self.codec).recover()
        assert recovered.snapshot is not None
        assert recovered.snapshot_entries == 4
        assert recovered.replayed_entries == 0
        assert c.applied_upto == 4
        assert c.store.data == a.store.data

    def test_decided_slot_journals_decision_not_slot_state(self, tmp_path):
        a = _replica()
        persister = _persister(tmp_path, a, codec=self.codec)
        persister.recover()
        a.dirty_slots.add(0)
        _decide(a, [0])
        persister.after_activation()
        persister.close()
        segment = list_segments(NodeStorage(tmp_path, 0).dir)[0]
        records = [
            decode_record(self.codec, payload)
            for payload in scan_segment(segment).payloads
        ]
        assert [type(r) for r in records] == [WalDecision]
        assert records[0].slot == 0

    def test_undecided_slot_state_survives_restart(self, tmp_path):
        a = _replica()
        persister = _persister(tmp_path, a, codec=self.codec)
        persister.recover()
        vote = _command(7, prefix="vote")
        assert a.restore_slot_state(
            7, bal=3, vbal=2, value=vote, initial_value=vote, sent_twoa=(0, 3)
        )
        a.dirty_slots.add(7)
        persister.after_activation()
        persister.close()

        b = _replica()
        recovered = _persister(tmp_path, b, codec=self.codec).recover()
        assert recovered.replayed_entries == 1
        inner = b._slots[7]
        assert inner.bal == 3
        assert inner.vbal == 2
        assert inner.val == vote
        assert inner._sent_twoa == {0, 3}

    def test_unchanged_slot_not_rejournaled(self, tmp_path):
        a = _replica()
        persister = _persister(tmp_path, a, codec=self.codec)
        persister.recover()
        vote = _command(9, prefix="vote")
        a.restore_slot_state(9, bal=1, vbal=1, value=vote, initial_value=vote)
        a.dirty_slots.add(9)
        persister.after_activation()
        # Same state marked dirty again: fingerprint matches, no new record.
        a.dirty_slots.add(9)
        persister.after_activation()
        persister.close()
        segment = list_segments(NodeStorage(tmp_path, 0).dir)[0]
        assert len(scan_segment(segment).payloads) == 1

    def test_snapshot_threshold_truncates_and_rotates(self, tmp_path):
        a = _replica()
        obs = Observability(node=0)
        persister = _persister(tmp_path, a, codec=self.codec, snapshot_every=2, obs=obs)
        persister.recover()
        _decide(a, range(3))
        persister.after_activation()
        persister.close()
        node_dir = NodeStorage(tmp_path, 0).dir
        snapshots = list_snapshots(node_dir)
        assert [info.upto for info in snapshots] == [3]
        # Applied machinery below the frontier is gone; the in-memory
        # applied log (the convergence witness) is not.
        assert a.decided == {}
        assert len(a.store.log) == 3
        counters = obs.registry.snapshot()["counters"]
        assert counters["storage.snapshots_written"] == 1
        assert counters["storage.truncated_slots"] == 3

    def test_hard_close_models_sigkill(self, tmp_path):
        a = _replica()
        persister = _persister(tmp_path, a, codec=self.codec)
        persister.recover()
        _decide(a, range(2))
        persister.after_activation()
        persister.close(hard=True)
        b = _replica()
        assert _persister(tmp_path, b, codec=self.codec).recover().replayed_entries == 2


class TestPersisterCycleBinary(TestPersisterCycle):
    codec = CODECS["binary"]


class TestRetention:
    def test_keeps_newest_snapshots_and_their_segments(self, tmp_path):
        for upto, seq in ((10, 2), (20, 3), (30, 5)):
            (tmp_path / snapshot_name(upto, seq)).write_text("{}")
        for seq in range(1, 6):
            (tmp_path / segment_name(seq)).write_bytes(b"")
        report = RetentionPolicy(keep_snapshots=2).apply(tmp_path)
        assert [p.name for p in report.deleted_snapshots] == [snapshot_name(10, 2)]
        assert [p.name for p in report.deleted_segments] == [
            segment_name(1),
            segment_name(2),
        ]
        # Kept: snapshots (20,3)/(30,5) and every segment they may need.
        assert [info.upto for info in list_snapshots(tmp_path)] == [20, 30]
        assert [p.name for p in list_segments(tmp_path)] == [
            segment_name(3),
            segment_name(4),
            segment_name(5),
        ]

    def test_without_snapshots_nothing_is_deleted(self, tmp_path):
        (tmp_path / segment_name(1)).write_bytes(b"")
        report = RetentionPolicy().apply(tmp_path)
        assert report.deleted == 0
        assert list_segments(tmp_path)


class TestStateTransfer:
    def test_install_state_grafts_a_leading_peer(self):
        ahead = _replica()
        _decide(ahead, range(6))
        behind = _replica(pid=1)
        _decide(behind, range(2))
        state = deserialize_replica_state(
            CODEC, serialize_replica_state(CODEC, ahead)
        )
        installed = install_state(behind, state)
        assert installed == 4
        assert behind.applied_upto == 6
        assert behind.store.data == ahead.store.data

    def test_install_state_from_stale_peer_is_a_noop(self):
        ahead = _replica()
        _decide(ahead, range(6))
        stale = deserialize_replica_state(
            CODEC, serialize_replica_state(CODEC, _replica(pid=1))
        )
        assert install_state(ahead, stale) == 0
        assert ahead.applied_upto == 6

    def test_install_remote_persists_the_transfer(self, tmp_path):
        behind = _replica()
        persister = _persister(tmp_path, behind)
        persister.recover()
        ahead = _replica(pid=1)
        _decide(ahead, range(5))
        state = deserialize_replica_state(
            CODEC, serialize_replica_state(CODEC, ahead)
        )
        assert persister.install_remote(state) == 5
        persister.close()
        # The transfer was rolled into a local snapshot immediately.
        fresh = _replica()
        recovered = _persister(tmp_path, fresh).recover()
        assert recovered.snapshot is not None
        assert fresh.applied_upto == 5


class TestInspect:
    def test_inspect_summarizes_node_directories(self, tmp_path):
        a = _replica()
        persister = _persister(tmp_path, a)
        persister.recover()
        _decide(a, range(3))
        persister.after_activation()
        persister.close()
        persister.storage.update_meta(host="127.0.0.1", port=4242)
        rows = inspect_data_dir(tmp_path, CODEC)
        assert len(rows) == 1
        row = rows[0]
        assert row["node"] == "node-0"
        assert row["wal_decisions"] == 3
        assert row["max_slot_seen"] == 2
        assert row["meta"]["port"] == 4242
        assert row["segments"][0]["records"] == 3

    def test_inspect_reports_the_archive_and_flags_uncovered_images(
        self, tmp_path, capsys
    ):
        codec = CODECS["binary"]
        a = _replica()
        persister = _persister(tmp_path, a, codec=codec, snapshot_every=4)
        persister.recover()
        for first in (0, 4):
            _decide_batches(a, range(first, first + 4))
            persister.after_activation()
        persister.close()
        row = inspect_data_dir(tmp_path, codec)[0]
        assert row["archive"]["entries"] == 24
        assert not row["archive"]["torn_tail"]
        older, newer = row["snapshots"]
        assert (older["log_entries"], newer["log_entries"]) == (12, 24)
        assert newer["archive_bytes"] == row["archive"]["bytes"]
        assert older["covered"] and newer["covered"]

        # Lose the second delta's tail: the newer image no longer stands.
        archive = persister.storage.archive_path
        with open(archive, "r+b") as handle:
            handle.truncate(newer["archive_bytes"] - 1)
        row = inspect_data_dir(tmp_path, codec)[0]
        assert row["archive"] == {
            "entries": 12,
            "bytes": older["archive_bytes"],
            "torn_tail": True,
        }
        assert [snap["covered"] for snap in row["snapshots"]] == [True, False]

        from repro.__main__ import main

        assert main(["recover", "--data-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "applied-log archive: 12 command(s)" in out
        assert out.count("NOT COVERED BY THE ARCHIVE") == 1


# ----------------------------------------------------------------------
# Format 2: an image over the applied-log archive.
# ----------------------------------------------------------------------


class _Crash(Exception):
    """kill -9 at a chosen point of a snapshot."""


def _decide_batches(replica, slots):
    for slot in slots:
        assert replica.restore_decided(slot, _batch(slot))


def _image_size(path):
    """An image's size with the three counters it names zeroed out."""
    tree = json.loads(path.read_text())
    assert tree["format"] == 2
    assert "store" not in tree and "log" not in tree and "applied_ids" not in tree
    for counter in ("applied_upto", "log_entries", "archive_bytes"):
        assert tree[counter] > 0
        tree[counter] = 0
    return len(json.dumps(tree))


def _two_images_and_a_tail(root, codec):
    """A crashed node directory: images at slots 8 and 12, two more slots
    in the WAL only. Returns its persister (closed hard) and final state."""
    a = _replica()
    persister = _persister(root, a, codec=codec, snapshot_every=4)
    persister.recover()
    for first in (0, 4, 8):
        _decide_batches(a, range(first, first + 4))
        persister.after_activation()
    _decide_batches(a, range(12, 14))
    persister.after_activation()
    persister.close(hard=True)
    assert [info.upto for info in list_snapshots(persister.storage.dir)] == [8, 12]
    return persister, _state(a)


@pytest.mark.parametrize("codec", CODECS.values(), ids=CODECS)
class TestSnapshotCost:
    def test_cost_follows_the_delta_not_the_history(self, tmp_path, monkeypatch, codec):
        every, intervals, per_batch = 8, 5, 3
        a = _replica()
        obs = Observability(node=0)
        persister = _persister(tmp_path, a, codec=codec, snapshot_every=every, obs=obs)
        persister.recover()
        archive = persister.storage.archive_path
        handed = []  # commands per applied-log tuple handed to the encoder
        encode_payload = codec.encode_payload

        def counting(obj, *args):
            if isinstance(obj, tuple):
                handed.append(len(obj))
            return encode_payload(obj, *args)

        monkeypatch.setattr(codec, "encode_payload", counting)
        costs = []
        for interval in range(intervals):
            size_before = archive.stat().st_size
            del handed[:]
            _decide_batches(a, range(interval * every, (interval + 1) * every))
            persister.after_activation()
            image = list_snapshots(persister.storage.dir)[-1]
            assert image.upto == (interval + 1) * every
            # No snapshot file contains the applied log.
            assert "b00000.0" not in image.path.read_text()
            costs.append(
                (archive.stat().st_size - size_before, sum(handed), _image_size(image.path))
            )
        assert costs[0][1] == every * per_batch
        assert costs == [costs[0]] * intervals
        snapshot = obs.registry.snapshot()
        counters = snapshot["counters"]
        assert counters["storage.archive_appends"] == intervals
        assert counters["storage.archive_bytes"] == archive.stat().st_size
        assert "storage.archive_fsyncs" not in counters  # fsync=False here
        assert snapshot["gauges"]["storage.snapshot_bytes"] == image.path.stat().st_size
        persister.close()

    def test_archive_fsyncs_are_counted_apart_from_the_wal(self, tmp_path, codec):
        a = _replica()
        obs = Observability(node=0)
        persister = _persister(
            tmp_path, a, codec=codec, snapshot_every=2, obs=obs, fsync=True
        )
        persister.recover()
        _decide_batches(a, range(2))
        persister.after_activation()
        persister.close()
        counters = obs.registry.snapshot()["counters"]
        assert counters["storage.archive_fsyncs"] == 1
        assert counters["storage.wal_fsyncs"] == 1  # the commit; rotation added none
        assert counters["storage.archive_bytes"] == persister.storage.archive_path.stat().st_size
        # What the benchmark reads as WAL volume is the two decisions, nothing else.
        decisions = [WalDecision(slot, _batch(slot)) for slot in range(2)]
        assert counters["storage.wal_bytes"] == sum(
            len(pack_record(codec.encode_payload(record))) for record in decisions
        )

    def test_shard_installed_ids_survive_a_restart(self, tmp_path, codec):
        a = _replica()
        persister = _persister(tmp_path, a, codec=codec, snapshot_every=2)
        persister.recover()
        install = KVCommand(
            op="config",
            key="",
            value={
                "kind": "shard_install",
                "lo": 0,
                "hi": 8,
                "slots": 16,
                "epoch": 1,
                "source": 0,
                "data": {"moved": "v"},
                "applied_ids": ["old-1", "old-2"],
            },
            command_id="__shard:install:1:0-8",
        )
        assert a.restore_decided(0, install)
        _decide(a, [1, 2])
        persister.after_activation()
        persister.close(hard=True)
        (image,) = list_snapshots(persister.storage.dir)
        assert "applied_ids" not in json.loads(image.path.read_text())

        b = _replica()
        _persister(tmp_path, b, codec=codec).recover()
        assert {"old-1", "old-2"} <= b.store.applied_ids
        assert _state(b) == _state(a)
        replayed = KVCommand(op="put", key="moved", value="again", command_id="old-1")
        assert b.store.apply(replayed) == "duplicate"


@pytest.mark.parametrize("codec", CODECS.values(), ids=CODECS)
class TestSnapshotCrashStages:
    @pytest.mark.parametrize(
        "stage", ["archive_torn", "archive_synced", "image_renamed", "rotated"]
    )
    def test_crash_at_every_stage_recovers_the_exact_state(
        self, tmp_path, monkeypatch, stage, codec
    ):
        a = _replica()
        persister = _persister(tmp_path, a, codec=codec, snapshot_every=4)
        persister.recover()
        node_dir = persister.storage.dir
        _decide_batches(a, range(4))
        persister.after_activation()  # the first snapshot lands whole
        assert [info.upto for info in list_snapshots(node_dir)] == [4]

        def crash(*args, **kwargs):
            raise _Crash(stage)

        with monkeypatch.context() as patch:
            if stage.startswith("archive"):  # archive appended, image never renamed
                patch.setattr(snapshot_module, "atomic_write_text", crash)
            elif stage == "image_renamed":  # ... but the WAL never rotated
                patch.setattr(recovery_module.WriteAheadLog, "create", crash)
            else:  # rotated, retention never ran
                patch.setattr(persister.retention, "apply", crash)
            _decide_batches(a, range(4, 8))
            with pytest.raises(_Crash):
                persister.after_activation()
        persister.close(hard=True)
        expected = _state(a)
        archive = persister.storage.archive_path
        if stage == "archive_torn":  # ... and the append itself was cut short
            with open(archive, "r+b") as handle:
                handle.truncate(archive.stat().st_size - 5)
        landed = 1 if stage.startswith("archive") else 2
        assert len(list_snapshots(node_dir)) == landed

        b = _replica()
        second = _persister(tmp_path, b, codec=codec, snapshot_every=4)
        second.recover()
        assert _state(b) == expected
        # ... and the next snapshot succeeds on top of what recovery left.
        _decide_batches(b, range(8, 12))
        second.after_activation()
        second.close(hard=True)
        assert list_snapshots(node_dir)[-1].upto == 12

        c = _replica()
        third = _persister(tmp_path, c, codec=codec)
        assert third.recover().replayed_entries == 0
        assert _state(c) == _state(b)
        assert len(c.store.log) == 36
        third.close()


@pytest.mark.parametrize("codec", CODECS.values(), ids=CODECS)
class TestSnapshotFallback:
    def _recover(self, root, codec):
        replica = _replica()
        obs = Observability(node=0)
        persister = _persister(root, replica, codec=codec, obs=obs)
        return replica, persister, obs.registry

    def test_unreadable_newest_image_falls_back_to_the_previous(self, tmp_path, codec):
        crashed, expected = _two_images_and_a_tail(tmp_path, codec)
        older, newer = list_snapshots(crashed.storage.dir)
        newer.path.write_text(newer.path.read_text()[:40])
        replica, persister, registry = self._recover(tmp_path, codec)
        result = persister.recover()
        assert result.snapshot == older
        assert _state(replica) == expected
        counters = registry.snapshot()["counters"]
        assert counters["storage.snapshot_fallbacks"] == 1
        assert counters["storage.snapshot_loaded"] == 1
        persister.close()

    def test_format_1_image_is_refused_by_name(self, tmp_path, codec):
        format_1 = json.dumps(
            {
                "format": 1,
                "applied_upto": 12,
                "store": codec.to_jsonable({"data": {}, "applied_ids": set(), "log": []}),
                "decided_tail": codec.to_jsonable({}),
                "log_entries": 0,
            }
        )
        crashed, expected = _two_images_and_a_tail(tmp_path / "newest", codec)
        list_snapshots(crashed.storage.dir)[-1].path.write_text(format_1)
        replica, persister, registry = self._recover(tmp_path / "newest", codec)
        persister.recover()
        assert _state(replica) == expected
        assert registry.snapshot()["counters"]["storage.snapshot_fallbacks"] == 1
        persister.close()

        # As the only image it stops recovery, and the error says why.
        crashed, _ = _two_images_and_a_tail(tmp_path / "only", codec)
        older, newer = list_snapshots(crashed.storage.dir)
        older.path.unlink()
        newer.path.write_text(format_1)
        replica, persister, _ = self._recover(tmp_path / "only", codec)
        with pytest.raises(RecoveryError, match="format 1, expected 2"):
            persister.recover()
        assert replica.store.log == [] and replica.applied_upto == 0

    def test_no_usable_image_never_continues_from_the_wal_alone(self, tmp_path, codec):
        crashed, _ = _two_images_and_a_tail(tmp_path, codec)
        crashed.storage.archive_path.unlink()
        replica, persister, registry = self._recover(tmp_path, codec)
        with pytest.raises(RecoveryError, match="none of the 2 retained"):
            persister.recover()
        assert registry.snapshot()["counters"]["storage.snapshot_fallbacks"] == 2
        # The retained segments start at slot 4: replaying them would have
        # applied nothing and silently kept an empty store.
        assert replica.store.log == [] and replica.applied_upto == 0


_CUT_TEMPLATES = {}


def _cut_template(tmp_path_factory, name):
    """``_two_images_and_a_tail`` plus an orphan archive record (a delta
    whose image never landed), built once per codec."""
    if name not in _CUT_TEMPLATES:
        root = tmp_path_factory.mktemp(f"cut-{name}")
        crashed, expected = _two_images_and_a_tail(root, CODECS[name])
        archive = crashed.storage.archive_path
        prefixes = [
            json.loads(info.path.read_text())["archive_bytes"]
            for info in list_snapshots(crashed.storage.dir)
        ]
        assert prefixes[-1] == archive.stat().st_size
        orphan = snapshot_module.AppliedLogArchive(archive, fsync=False)
        orphan.open_at(36, prefixes[-1])
        orphan.append(CODECS[name], expected[0][36:])
        orphan.close()
        _CUT_TEMPLATES[name] = (root, expected, prefixes, archive.stat().st_size)
    return _CUT_TEMPLATES[name]


@pytest.mark.parametrize("name", CODECS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_archive_cut_at_any_byte_never_yields_a_short_log(tmp_path_factory, name, data):
    """Exact log (cut beyond the newest named prefix), fallback to the
    previous image (cut inside it), or a refusal — nothing in between."""
    root, expected, (older, newer), size = _cut_template(tmp_path_factory, name)
    cut = data.draw(st.integers(min_value=0, max_value=size))
    copy = tmp_path_factory.mktemp("cut") / "data"
    shutil.copytree(root, copy)
    replica = _replica()
    obs = Observability(node=0)
    persister = _persister(copy, replica, codec=CODECS[name], obs=obs)
    with open(persister.storage.archive_path, "r+b") as handle:
        handle.truncate(cut)
    if cut < older:
        with pytest.raises(RecoveryError):
            persister.recover()
        assert replica.store.log == []
        return
    persister.recover()
    persister.close()
    assert _state(replica) == expected
    fallbacks = obs.registry.snapshot()["counters"].get("storage.snapshot_fallbacks", 0)
    assert fallbacks == (0 if cut >= newer else 1)


# ----------------------------------------------------------------------
# One body per slot per WAL segment.
# ----------------------------------------------------------------------


@pytest.mark.parametrize("codec", CODECS.values(), ids=CODECS)
class TestWalBodiesByReference:
    def _vote_then_decide(self, replica, persister, slot):
        """What a follower journals for one slot: its vote, then the decision."""
        batch = _batch(slot)
        assert replica.restore_slot_state(
            slot, bal=0, vbal=0, value=batch, initial_value=batch
        )
        replica.dirty_slots.add(slot)
        persister.after_activation()
        assert replica.restore_decided(slot, batch)
        persister.after_activation()

    def test_each_body_is_journaled_in_full_once_per_slot(self, tmp_path, codec):
        slots = 6
        a = _replica()
        persister = _persister(tmp_path, a, codec=codec)
        persister.recover()
        for slot in range(slots):
            self._vote_then_decide(a, persister, slot)
        persister.close(hard=True)
        (segment,) = list_segments(persister.storage.dir)
        values = _wal_values(codec, segment)
        for slot in range(slots):
            mine = [value for where, value in values if where == slot]
            # val + initial_val of the vote, then the decision: one body.
            assert [type(value) for value in mine] == [CommandBatch, BatchRef, BatchRef]
            assert mine[1] == mine[2] == mine[0].ref

        b = _replica()
        _persister(tmp_path, b, codec=codec).recover()
        assert _state(b) == _state(a)
        assert len(b.store.log) == 3 * slots

    def test_restart_mid_slot_restores_vote_and_proposal_as_the_same_batch(
        self, tmp_path, codec
    ):
        a = _replica()
        persister = _persister(tmp_path, a, codec=codec)
        persister.recover()
        batch = _batch(7)
        a.restore_slot_state(7, bal=2, vbal=1, value=batch, initial_value=batch)
        a.dirty_slots.add(7)
        persister.after_activation()
        persister.close(hard=True)

        b = _replica()
        _persister(tmp_path, b, codec=codec).recover()
        inner = b._slots[7]
        assert inner.val == batch and inner.initial_val == batch
        assert inner.val is inner.initial_val
        assert b._inflight[7] == batch

    def test_slot_open_across_a_rotation_is_journaled_again_in_full(
        self, tmp_path, codec
    ):
        a = _replica()
        persister = _persister(tmp_path, a, codec=codec, snapshot_every=2)
        persister.recover()
        open_batch = _batch(5)
        a.restore_slot_state(5, bal=1, vbal=1, value=open_batch, initial_value=open_batch)
        a.dirty_slots.add(5)
        persister.after_activation()
        _decide_batches(a, range(2))
        persister.after_activation()  # snapshot: rotates to a new segment
        # Retention already retired the old segment (the one image needs
        # none below its wal_seq), and the new one knows nothing of it: the
        # open slot's state is there again, body in full.
        (new,) = list_segments(persister.storage.dir)
        assert [(slot, type(value)) for slot, value in _wal_values(codec, new)] == [
            (5, CommandBatch),
            (5, BatchRef),
        ]
        # Unchanged since: touching the slot again journals nothing more.
        a.dirty_slots.add(5)
        persister.after_activation()
        # Its decision, later in the same segment, refers to that body.
        assert a.restore_decided(5, open_batch)
        persister.after_activation()
        persister.close(hard=True)
        assert _wal_values(codec, new)[2:] == [(5, open_batch.ref)]

        # The image plus the segments from its wal_seq on are enough.
        b = _replica()
        _persister(tmp_path, b, codec=codec).recover()
        assert b.decided[5] == open_batch
        assert b.applied_upto == 2
