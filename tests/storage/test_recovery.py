"""Snapshot round-trip, persister recovery cycle, retention, transfer.

These tests drive :class:`~repro.storage.recovery.ReplicaPersister`
against real :class:`~repro.smr.log.SMRReplica` instances offline (the
catch-up test runs one node's loop with the network stubbed out):
journal → crash → recover must rebuild the identical store, a snapshot
must bound what the WAL replays, and what a snapshot or a state
transfer costs must depend on live state plus the commands the other
side lacks, not on history. Nothing here reads a clock.
"""

import asyncio
import json
import shutil
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.codec import MessageCodec, MessageRegistry
from repro.net.node import NodeServer
from repro.net.wire import SnapshotRequest
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
    SnapshotError,
    decode_record,
    encode_record,
    inspect_data_dir,
    install_image,
    list_segments,
    list_snapshots,
    load_snapshot,
    scan_segment,
    transfer_chunks,
)
from repro.storage import recovery as recovery_module
from repro.storage import snapshot as snapshot_module
from repro.storage.recovery import fetch_snapshot, spliced_log
from repro.storage.snapshot import decode_image, snapshot_name
from repro.storage.wal import pack_record, scan_records, segment_name
from repro.storage.writer import StorageWriter

N, F, E = 5, 2, 2
CODEC = MessageCodec()


def _replica(pid=0):
    return SMRReplica(pid, N, F, E)


def _one(slot, prefix="c"):
    """The one-member batch a ``batch_size=1`` proxy decides for *slot*."""
    command = KVCommand(
        op="put", key=f"k{slot % 3}", value=slot, command_id=f"{prefix}{slot}"
    )
    return CommandBatch((command,), batch_id=f"__batch:{prefix}:{slot}__")


def _decide(replica, slots):
    for slot in slots:
        assert replica.restore_decided(slot, _one(slot))


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


def _serve(donor, receiver):
    """What *donor* streams back for *receiver*'s ``SnapshotRequest``:
    the chunks and the document they join into."""
    request = SnapshotRequest("r", receiver.applied_upto, len(receiver.store.log))
    chunks = transfer_chunks(CODEC, donor, request)
    return chunks, b"".join(chunk.payload for chunk in chunks)


def _image(donor, receiver):
    """*donor*'s transfer image for *receiver*, decoded."""
    return decode_image(CODEC, _serve(donor, receiver)[1], "transfer", on_disk=False)


def _fetch(monkeypatch, text, applied_upto=0, log_entries=0):
    """``fetch_snapshot`` against a peer whose stream joins into *text*."""

    async def answer(address, codec, client_id, request, timeout):
        return text

    monkeypatch.setattr(recovery_module, "_fetch_document", answer)
    return asyncio.run(
        fetch_snapshot(("peer", 0), CODEC, applied_upto=applied_upto, log_entries=log_entries)
    )


class TestSnapshotRoundTrip:
    def test_replica_state_round_trips(self):
        a = _replica()
        _decide(a, range(5))
        b = _replica(pid=1)
        image = _image(a, b)
        assert image["applied_upto"] == 5
        assert image["log_entries"] == 5
        install_image(b, image, spliced_log(b.store.log, image))
        assert b.applied_upto == 5
        assert b.store.data == a.store.data
        assert b.store.applied_ids == a.store.applied_ids
        assert [c.command_id for c in b.store.log] == [
            c.command_id for c in a.store.log
        ]

    def test_decided_tail_survives(self):
        a = _replica()
        _decide(a, range(3))
        # Slot 4 decided but slot 3 missing: 4 stays in the unapplied tail.
        assert a.restore_decided(4, _one(4))
        assert a.applied_upto == 3
        image = _image(a, _replica(pid=1))
        assert set(image["decided_tail"]) == {4}

    def test_disk_and_wire_images_share_one_renderer_and_one_decoder(
        self, tmp_path, monkeypatch
    ):
        a = _replica()
        persister = _persister(tmp_path, a, snapshot_every=4)
        persister.recover()
        _decide_batches(a, range(4))
        assert a.restore_decided(5, _batch(5))  # a decided tail
        persister.after_activation()
        persister.close()
        (info,) = list_snapshots(persister.storage.dir)
        disk = CODEC.decode_payload(info.path.read_bytes())
        text = _serve(a, _replica(pid=1))[1]
        wire = CODEC.decode_payload(text)
        # One image: the two differ only in where the log comes from.
        assert disk.pop("archive_bytes") > 0
        assert wire.pop("anchor") is None
        assert wire.pop("suffix") == a.store.log
        assert disk == wire

        decoded = []
        decode = snapshot_module.decode_image

        def spy(codec, text, what, on_disk):
            decoded.append(on_disk)
            return decode(codec, text, what, on_disk)

        monkeypatch.setattr(snapshot_module, "decode_image", spy)
        monkeypatch.setattr(recovery_module, "decode_image", spy)
        loaded = load_snapshot(CODEC, info)
        fetched = _fetch(monkeypatch, text)
        assert decoded == [True, False]
        assert fetched["log_entries"] == loaded["log_entries"] == 12
        assert fetched["suffix"] == loaded["log"] == a.store.log
        for key in ("applied_upto", "data", "decided_tail"):
            assert fetched[key] == loaded[key]
        # Sound but for a bare command in the decided tail, as the build
        # before one-member batches wrote at batch size 1.
        bare_tail = dict(disk, archive_bytes=0, anchor=None, suffix=[])
        bare_tail["decided_tail"] = {5: _one(5).commands[0]}
        for on_disk in (True, False):
            for bad in (
                b"{",
                b'{"format": 2}',  # a JSON image, as the build before format 3 wrote
                CODEC.encode_payload([]),
                CODEC.encode_payload({"format": 3}),
                CODEC.encode_payload({"format": 3, "data": 5}),
                CODEC.encode_payload(bare_tail),
            ):
                with pytest.raises(SnapshotError):
                    decode(CODEC, bad, "bad", on_disk)


def _reregistered():
    """A codec over :data:`CODEC`'s types, registered in reverse order."""
    registry = MessageRegistry()
    for name in reversed(CODEC.registry.names()):
        registry.register(CODEC.registry.type_of(name), name)
    return MessageCodec(registry)


class TestPersisterCycle:
    #: ``TestPersisterCycleReversedRegistry`` reruns every test on a codec
    #: whose registry was filled in reverse order.
    codec = CODEC

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
        vote = _one(7, prefix="vote")
        assert a.restore_slot_state(7, (3, 2, vote, vote, (0, 3)))
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
        vote = _one(9, prefix="vote")
        a.restore_slot_state(9, (1, 1, vote, vote, ()))
        a.dirty_slots.add(9)
        persister.after_activation()
        # Same state marked dirty again: projection unchanged, no new record.
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


class TestPersisterCycleReversedRegistry(TestPersisterCycle):
    """Every test again on a codec whose registry was filled in another
    order: neither its type ids nor its stamp may depend on that."""

    codec = _reregistered()


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


def _donor(commands, keys=64, per_slot=100):
    """A replica that applied *commands* puts over *keys* keys, in slots
    of *per_slot*; ids and values are fixed-width, so only the number
    of commands varies between donors."""
    donor = _replica()
    for slot in range(commands // per_slot):
        batch = CommandBatch(
            tuple(
                KVCommand(
                    op="put",
                    key=f"k{i % keys:02d}",
                    value=f"{i:06d}",
                    command_id=f"c{i:06d}",
                )
                for i in range(slot * per_slot, (slot + 1) * per_slot)
            ),
            batch_id=f"__batch:0:{slot:05d}__",
        )
        assert donor.restore_decided(slot, batch)
    return donor


class TestStateTransfer:
    def test_payload_is_live_state_plus_delta_not_history(self):
        sizes = []
        for commands in (2_000, 20_000):
            donor = _donor(commands)
            behind = SnapshotRequest("r", donor.applied_upto - 1, commands - 100)
            text = b"".join(
                chunk.payload for chunk in transfer_chunks(CODEC, donor, behind)
            )
            image = decode_image(CODEC, text, "transfer", on_disk=False)
            assert [c.command_id for c in image["suffix"]] == [
                c.command_id for c in donor.store.log[-100:]
            ]
            assert image["anchor"] == f"c{commands - 101:06d}"
            sizes.append(len(text))
        # Ten times the history, the same payload: live map + 100 commands.
        assert abs(sizes[1] - sizes[0]) <= 0.1 * sizes[0]

    def test_install_state_grafts_a_leading_peer(self):
        ahead = _replica()
        _decide(ahead, range(6))
        behind = _replica(pid=1)
        _decide(behind, range(2))
        image = _image(ahead, behind)
        assert [c.command_id for c in image["suffix"]] == [f"c{s}" for s in range(2, 6)]
        assert image["anchor"] == "c1"
        install_image(behind, image, spliced_log(behind.store.log, image))
        assert behind.applied_upto == 6
        assert behind.store.data == ahead.store.data
        assert behind.store.log == ahead.store.log

    def test_install_state_from_stale_peer_is_a_noop(self, tmp_path, monkeypatch):
        ahead = _replica()
        _decide(ahead, range(6))
        level = _replica(pid=1)
        _decide(level, range(6))
        for donor in (_replica(pid=2), level):
            chunks, text = _serve(donor, ahead)
            assert len(chunks) == 1 and chunks[0].last and text == b""
            assert chunks[0].upto == donor.applied_upto
        decoded = []
        monkeypatch.setattr(recovery_module, "decode_image", decoded.append)
        assert _fetch(monkeypatch, b"", ahead.applied_upto, len(ahead.store.log)) is None
        assert decoded == []
        # An image from a peer that stopped being ahead before it landed.
        stale = _image(level, _replica(pid=3))
        persister = _persister(tmp_path, ahead)
        persister.recover()
        assert persister.install_remote(stale) == 0
        assert ahead.applied_upto == 6 and len(ahead.store.log) == 6

    def test_anchor_mismatch_is_refused_and_leaves_the_receiver_untouched(
        self, tmp_path
    ):
        behind = _replica()
        persister = _persister(tmp_path, behind)
        persister.recover()
        _decide(behind, range(2))
        persister.after_activation()
        before = _state(behind)
        other = _replica(pid=1)  # a different history of the same length
        for slot in range(6):
            assert other.restore_decided(slot, _one(slot, prefix="x"))
        image = _image(other, behind)
        assert image["anchor"] == "x1"
        with pytest.raises(SnapshotError, match="does not extend this log"):
            persister.install_remote(image)
        assert _state(behind) == before and behind.applied_upto == 2
        persister.close()

    def test_empty_receiver_gets_the_whole_log(self):
        ahead = _replica()
        _decide_batches(ahead, range(4))
        empty = _replica(pid=1)
        image = _image(ahead, empty)
        assert image["anchor"] is None
        assert image["suffix"] == ahead.store.log
        install_image(empty, image, spliced_log(empty.store.log, image))
        assert _state(empty) == _state(ahead)

    def test_install_remote_persists_the_transfer(self, tmp_path):
        behind = _replica()
        persister = _persister(tmp_path, behind)
        persister.recover()
        ahead = _replica(pid=1)
        _decide(ahead, range(5))
        assert persister.install_remote(_image(ahead, behind)) == 5
        persister.close()
        # The transfer was rolled into a local snapshot immediately.
        fresh = _replica()
        recovered = _persister(tmp_path, fresh).recover()
        assert recovered.snapshot is not None
        assert fresh.applied_upto == 5

    def test_catch_up_skips_bad_peers_and_installs_from_a_good_one(
        self, tmp_path, monkeypatch
    ):
        node = NodeServer(
            0,
            N,
            lambda pid, n: SMRReplica(pid, n, F, E),
            data_dir=str(tmp_path),
            fsync=False,
            codec=CODEC,
        )
        node.persister.recover()
        node.addresses = [("peer", pid) for pid in range(N)]
        good = _replica(pid=3)
        _decide(good, range(6))
        forked = _replica(pid=2)  # as far ahead, but its log is another one
        for slot in range(6):
            assert forked.restore_decided(slot, _one(slot, prefix="x"))
        behind = _replica()
        _decide(behind, range(2))
        node.process.restore_store({"data": behind.store.data, "log": behind.store.log}, 2)
        answers = {
            1: CODEC.encode_payload({"format": 3, "applied_upto": 9}),  # fields missing
            2: _serve(forked, behind)[1],  # anchored on another log
            3: _serve(good, behind)[1],
            4: b"",  # not ahead
        }

        async def answer(address, codec, client_id, request, timeout):
            return answers[address[1]]

        monkeypatch.setattr(recovery_module, "_fetch_document", answer)
        monkeypatch.setattr(recovery_module, "CATCH_UP_DELAY", 0)
        asyncio.run(recovery_module.catch_up(node))
        node.persister.close()
        assert _state(node.process) == _state(good)
        counters = node.obs.registry.snapshot()["counters"]
        assert counters["storage.snapshot_transfers"] == 1
        # Peer 1 in both rounds, peer 2 in the first (level in the second).
        assert counters["storage.transfer_rejected"] == 3


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
        codec = CODEC
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


class TestUndecodableRecords:
    """A WAL record whose CRC holds but whose payload does not decode."""

    def test_recover_names_the_segment_and_the_record(self, tmp_path):
        a = _replica()
        persister = _persister(tmp_path, a)
        persister.recover()
        _decide(a, range(2))
        persister.after_activation()
        persister.close()
        good = list_segments(persister.storage.dir)[-1].read_bytes()
        bad = persister.storage.dir / segment_name(9)
        bad.write_bytes(good + pack_record(b"\x07junk"))
        with pytest.raises(RecoveryError) as refused:
            _persister(tmp_path, _replica()).recover()
        assert str(refused.value).startswith(
            f"{bad.name}: record 2 does not decode (wire version mismatch: got 7"
        )

    def test_repro_recover_marks_the_segment_unreadable(self, tmp_path, capsys):
        node_dir = tmp_path / "node-0"
        node_dir.mkdir()
        record = pack_record(b"\x07junk")
        (node_dir / segment_name(1)).write_bytes(record)
        from repro.__main__ import main

        assert main(["recover", "--data-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert (
            f"{segment_name(1)}: 1 record(s), {len(record)} valid "
            f"byte(s) UNREADABLE ({segment_name(1)}: record 0 does not decode "
            "(wire version mismatch: got 7"
        ) in captured.out
        assert f"registry stamp: none (this build: {CODEC.registry_hash})" in captured.out
        assert captured.out.count("REFUSED BY RECOVERY") == 2  # the stamp, the record


# ----------------------------------------------------------------------
# Format 3: an image (one codec payload) over the applied-log archive.
# ----------------------------------------------------------------------


class _Crash(Exception):
    """kill -9 at a chosen point of a snapshot."""


def _decide_batches(replica, slots):
    for slot in slots:
        assert replica.restore_decided(slot, _batch(slot))


def _image_size(path):
    """An image's size with the three counters it names zeroed out."""
    tree = CODEC.decode_payload(path.read_bytes())
    assert tree["format"] == 3
    assert "store" not in tree and "log" not in tree and "applied_ids" not in tree
    for counter in ("applied_upto", "log_entries", "archive_bytes"):
        assert tree[counter] > 0
        tree[counter] = 0
    return len(CODEC.encode_payload(tree))


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


@dataclass(frozen=True)
class _ParentNodeHello:
    pid: int
    max_wire_version: int = 1
    registry_hash: str = ""


@dataclass(frozen=True)
class _ParentClientHello:
    client_id: str
    max_wire_version: int = 1
    registry_hash: str = ""


@dataclass(frozen=True)
class _ParentHelloAck:
    wire_version: int
    registry_hash: str = ""


def _parent_codec():
    """The codec of the build before the registry stamp: the same types,
    plus its three hellos in the sorted table, so its type ids — what its
    WAL and archive records carry — are that build's."""
    registry = MessageRegistry()
    for name in CODEC.registry.names():
        registry.register(CODEC.registry.type_of(name), name)
    registry.register(_ParentNodeHello, name="NodeHello")
    registry.register(_ParentClientHello, name="ClientHello")
    registry.register(_ParentHelloAck, name="HelloAck")
    return MessageCodec(registry)


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestLegacyPayloads:
    """Data directories this build must not read: refused whole, by name."""

    def _parent_directory(self, root):
        """A crashed node directory as the build before the stamp left it:
        WAL and archive records under its type ids, JSON images, a
        ``node.json`` with its bound port, and no registry stamp file."""
        crashed, _ = _two_images_and_a_tail(root, _parent_codec())
        storage = crashed.storage
        storage.stamp_path.unlink()
        storage.meta_path.write_text('{"host": "127.0.0.1", "port": 4242}\n')
        for info in list_snapshots(storage.dir):
            image = _parent_codec().decode_payload(info.path.read_bytes())
            info.path.write_text(
                json.dumps({**image, "format": 2, "data": {}, "decided_tail": {}})
            )
        return storage

    def test_parent_build_directory_is_refused_by_its_stamp(self, tmp_path, capsys):
        # Its records carry that build's ids: its three hellos sort first.
        ours, theirs = (c.encode_payload(WalDecision(0, None)) for c in (CODEC, _parent_codec()))
        assert int.from_bytes(theirs[2:4], "big") == int.from_bytes(ours[2:4], "big") + 3
        storage = self._parent_directory(tmp_path)
        before = _files(storage.dir)
        replica = _replica()
        with pytest.raises(RecoveryError) as refused:
            _persister(tmp_path, replica).recover()
        message = str(refused.value)
        assert "registry none (no stamp file: an older build)" in message
        assert CODEC.registry_hash in message
        assert replica.store.log == [] and replica.applied_upto == 0
        assert _files(storage.dir) == before  # not even stamped

        from repro.__main__ import main

        assert main(["recover", "--data-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "registry stamp: none" in out
        assert f"REFUSED BY RECOVERY: {message}" in out

    def test_directory_stamped_by_another_registry_is_refused(self, tmp_path):
        # The parent build's records with a stamp: what a build with one
        # more message type than this one would leave.
        parent = _parent_codec()
        crashed, _ = _two_images_and_a_tail(tmp_path, parent)
        assert crashed.storage.read_stamp() == parent.registry_hash
        before = _files(crashed.storage.dir)
        replica = _replica()
        with pytest.raises(RecoveryError) as refused:
            _persister(tmp_path, replica).recover()
        assert parent.registry_hash in str(refused.value)
        assert CODEC.registry_hash in str(refused.value)
        assert replica.store.log == [] and replica.applied_upto == 0
        assert _files(crashed.storage.dir) == before
        # The build that wrote it still recovers it exactly.
        again = _replica()
        _persister(tmp_path, again, codec=parent).recover()
        assert again.applied_upto == 14

    def test_a_lost_node_json_leaves_the_stamp_and_the_state(self, tmp_path):
        # node.json only pins the port and is rewritten on every start
        # without an fsync: losing it must not cost the data directory.
        crashed, state = _two_images_and_a_tail(tmp_path, CODEC)
        crashed.storage.meta_path.write_text("")  # truncated by a power loss
        crashed.storage.update_meta(host="127.0.0.1", port=4242)  # the next bind
        replica = _replica()
        _persister(tmp_path, replica).recover()
        assert _state(replica) == state

    def test_an_unreadable_stamp_is_refused_by_name(self, tmp_path, capsys):
        crashed, _ = _two_images_and_a_tail(tmp_path, CODEC)
        crashed.storage.stamp_path.write_text("")
        before = _files(crashed.storage.dir)
        replica = _replica()
        with pytest.raises(RecoveryError) as refused:
            _persister(tmp_path, replica).recover()
        message = str(refused.value)
        assert "registry unreadable (empty file)" in message
        assert CODEC.registry_hash in message
        assert replica.store.log == [] and replica.applied_upto == 0
        assert _files(crashed.storage.dir) == before

        from repro.__main__ import main

        assert main(["recover", "--data-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "registry stamp: unreadable" in out
        assert f"REFUSED BY RECOVERY: {message}" in out

    def test_a_bare_slot_value_is_refused_by_slot(self, tmp_path, capsys):
        # The build before one-member batches decided a bare KVCommand at
        # batch size 1 and for every gap-repair no-op, under the same
        # registry hash: its WAL record decodes, and must still be refused.
        persister = _persister(tmp_path, _replica())
        persister.recover()
        persister.close()
        bare = KVCommand(op="put", key="k", value=1, command_id="c3")
        segment = persister.storage.dir / segment_name(9)
        segment.write_bytes(pack_record(encode_record(CODEC, WalDecision(3, bare))))
        replica = _replica()
        with pytest.raises(RecoveryError) as refused:
            _persister(tmp_path, replica).recover()
        message = str(refused.value)
        assert message.startswith(
            f"{segment.name}: record 0 holds a bare KVCommand for slot 3;"
        )
        assert "\n" not in message
        assert replica.decided == {} and replica.store.log == []

        from repro.__main__ import main

        assert main(["recover", "--data-dir", str(tmp_path)]) == 1
        assert f"REFUSED BY RECOVERY: {message}" in capsys.readouterr().out

    def test_fresh_directory_is_stamped_before_its_first_segment(
        self, tmp_path, monkeypatch
    ):
        storage = NodeStorage(tmp_path, 0)
        stamped = []
        create = recovery_module.WriteAheadLog.create

        def spy(*args, **kwargs):
            stamped.append(storage.read_stamp())
            return create(*args, **kwargs)

        monkeypatch.setattr(recovery_module.WriteAheadLog, "create", spy)
        _persister(tmp_path, _replica()).recover()
        assert stamped == [CODEC.registry_hash]


class TestSnapshotCost:
    def test_cost_follows_the_delta_not_the_history(self, tmp_path, monkeypatch):
        every, intervals, per_batch = 8, 5, 3
        a = _replica()
        obs = Observability(node=0)
        persister = _persister(tmp_path, a, codec=CODEC, snapshot_every=every, obs=obs)
        persister.recover()
        archive = persister.storage.archive_path
        handed = []  # commands per applied-log tuple handed to the encoder
        encode_payload = CODEC.encode_payload

        def counting(obj, *args):
            if isinstance(obj, tuple):
                handed.append(len(obj))
            return encode_payload(obj, *args)

        monkeypatch.setattr(CODEC, "encode_payload", counting)
        costs = []
        for interval in range(intervals):
            size_before = archive.stat().st_size
            del handed[:]
            _decide_batches(a, range(interval * every, (interval + 1) * every))
            persister.after_activation()
            persister.writer.drain()
            image = list_snapshots(persister.storage.dir)[-1]
            assert image.upto == (interval + 1) * every
            # No snapshot file contains the applied log.
            assert b"b00000.0" not in image.path.read_bytes()
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

    def test_archive_fsyncs_are_counted_apart_from_the_wal(self, tmp_path):
        a = _replica()
        obs = Observability(node=0)
        persister = _persister(
            tmp_path, a, codec=CODEC, snapshot_every=2, obs=obs, fsync=True
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
            len(pack_record(CODEC.encode_payload(record))) for record in decisions
        )

    def test_shard_installed_ids_survive_a_restart(self, tmp_path):
        a = _replica()
        persister = _persister(tmp_path, a, codec=CODEC, snapshot_every=2)
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
        assert a.restore_decided(0, CommandBatch((install,), batch_id="b"))
        _decide(a, [1, 2])
        persister.after_activation()
        persister.close(hard=True)
        (image,) = list_snapshots(persister.storage.dir)
        assert "applied_ids" not in CODEC.decode_payload(image.path.read_bytes())

        b = _replica()
        _persister(tmp_path, b, codec=CODEC).recover()
        assert {"old-1", "old-2"} <= b.store.applied_ids
        assert _state(b) == _state(a)
        replayed = KVCommand(op="put", key="moved", value="again", command_id="old-1")
        assert b.store.apply(replayed) == "duplicate"


class TestSnapshotCrashStages:
    @pytest.mark.parametrize(
        "stage", ["archive_torn", "archive_synced", "image_renamed", "rotated"]
    )
    def test_crash_at_every_stage_recovers_the_exact_state(
        self, tmp_path, monkeypatch, stage
    ):
        a = _replica()
        persister = _persister(tmp_path, a, codec=CODEC, snapshot_every=4)
        persister.recover()
        node_dir = persister.storage.dir
        _decide_batches(a, range(4))
        persister.after_activation()  # the first snapshot lands whole
        persister.writer.drain()
        assert [info.upto for info in list_snapshots(node_dir)] == [4]

        def crash(*args, **kwargs):
            raise _Crash(stage)

        with monkeypatch.context() as patch:
            if stage.startswith("archive"):  # archive appended, image never renamed
                patch.setattr(snapshot_module, "atomic_write_bytes", crash)
            elif stage == "image_renamed":  # ... but the WAL never rotated
                patch.setattr(recovery_module.WriteAheadLog, "create", crash)
            else:  # rotated, retention never ran
                patch.setattr(persister.retention, "apply", crash)
            _decide_batches(a, range(4, 8))
            # Rotation fails on the loop; the other stages on the writer,
            # which reports the failure when drained.
            with pytest.raises(_Crash):
                persister.after_activation()
                persister.writer.drain()
        persister.close(hard=True)
        expected = _state(a)
        archive = persister.storage.archive_path
        if stage == "archive_torn":  # ... and the append itself was cut short
            with open(archive, "r+b") as handle:
                handle.truncate(archive.stat().st_size - 5)
        landed = 1 if stage.startswith("archive") else 2
        assert len(list_snapshots(node_dir)) == landed

        b = _replica()
        second = _persister(tmp_path, b, codec=CODEC, snapshot_every=4)
        second.recover()
        assert _state(b) == expected
        # ... and the next snapshot succeeds on top of what recovery left.
        _decide_batches(b, range(8, 12))
        second.after_activation()
        second.close(hard=True)
        assert list_snapshots(node_dir)[-1].upto == 12

        c = _replica()
        third = _persister(tmp_path, c, codec=CODEC)
        assert third.recover().replayed_entries == 0
        assert _state(c) == _state(b)
        assert len(c.store.log) == 36
        third.close()


class TestSnapshotFallback:
    def _recover(self, root):
        replica = _replica()
        obs = Observability(node=0)
        persister = _persister(root, replica, codec=CODEC, obs=obs)
        return replica, persister, obs.registry

    def test_unreadable_newest_image_falls_back_to_the_previous(self, tmp_path):
        crashed, expected = _two_images_and_a_tail(tmp_path, CODEC)
        older, newer = list_snapshots(crashed.storage.dir)
        newer.path.write_bytes(newer.path.read_bytes()[:40])
        replica, persister, registry = self._recover(tmp_path)
        result = persister.recover()
        assert result.snapshot == older
        assert _state(replica) == expected
        counters = registry.snapshot()["counters"]
        assert counters["storage.snapshot_fallbacks"] == 1
        assert counters["storage.snapshot_loaded"] == 1
        persister.close()

    def test_format_1_image_is_refused_by_name(self, tmp_path):
        # Format 1 and format 2 were JSON text; a v2 payload must still
        # name format 3.
        older_images = {
            "format 1": json.dumps({"format": 1, "applied_upto": 12, "log_entries": 0}),
            "format 2": json.dumps({"format": 2, "applied_upto": 12, "log_entries": 0}),
            "v2 payload, format 2": CODEC.encode_payload({"format": 2, "applied_upto": 12}),
        }
        for label, image in older_images.items():
            blob = image if isinstance(image, bytes) else image.encode()
            root = tmp_path / label.replace(" ", "-").replace(",", "")
            crashed, expected = _two_images_and_a_tail(root / "newest", CODEC)
            list_snapshots(crashed.storage.dir)[-1].path.write_bytes(blob)
            replica, persister, registry = self._recover(root / "newest")
            persister.recover()
            assert _state(replica) == expected
            assert registry.snapshot()["counters"]["storage.snapshot_fallbacks"] == 1
            persister.close()

            # As the only image it stops recovery, and the error says why.
            crashed, _ = _two_images_and_a_tail(root / "only", CODEC)
            older, newer = list_snapshots(crashed.storage.dir)
            older.path.unlink()
            newer.path.write_bytes(blob)
            replica, persister, _ = self._recover(root / "only")
            reason = "format 2, expected 3" if label.startswith("v2") else (
                "not a format-3 document"
            )
            with pytest.raises(RecoveryError, match=reason):
                persister.recover()
            assert replica.store.log == [] and replica.applied_upto == 0

    def test_no_usable_image_never_continues_from_the_wal_alone(self, tmp_path):
        crashed, _ = _two_images_and_a_tail(tmp_path, CODEC)
        crashed.storage.archive_path.unlink()
        replica, persister, registry = self._recover(tmp_path)
        with pytest.raises(RecoveryError, match="none of the 2 retained"):
            persister.recover()
        assert registry.snapshot()["counters"]["storage.snapshot_fallbacks"] == 2
        # The retained segments start at slot 4: replaying them would have
        # applied nothing and silently kept an empty store.
        assert replica.store.log == [] and replica.applied_upto == 0


_CUT_TEMPLATE = []


def _cut_template(tmp_path_factory):
    """``_two_images_and_a_tail`` plus an orphan archive record (a delta
    whose image never landed), built once."""
    if not _CUT_TEMPLATE:
        root = tmp_path_factory.mktemp("cut")
        crashed, expected = _two_images_and_a_tail(root, CODEC)
        archive = crashed.storage.archive_path
        prefixes = [
            CODEC.decode_payload(info.path.read_bytes())["archive_bytes"]
            for info in list_snapshots(crashed.storage.dir)
        ]
        assert prefixes[-1] == archive.stat().st_size
        writer = StorageWriter()
        orphan = snapshot_module.AppliedLogArchive(archive, writer, fsync=False)
        orphan.open_at(36, prefixes[-1])
        orphan.append(CODEC, expected[0][36:])
        orphan.close()
        writer.stop()
        _CUT_TEMPLATE.append((root, expected, prefixes, archive.stat().st_size))
    return _CUT_TEMPLATE[0]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_archive_cut_at_any_byte_never_yields_a_short_log(tmp_path_factory, data):
    """Exact log (cut beyond the newest named prefix), fallback to the
    previous image (cut inside it), or a refusal — nothing in between."""
    root, expected, (older, newer), size = _cut_template(tmp_path_factory)
    cut = data.draw(st.integers(min_value=0, max_value=size))
    copy = tmp_path_factory.mktemp("cut") / "data"
    shutil.copytree(root, copy)
    replica = _replica()
    obs = Observability(node=0)
    persister = _persister(copy, replica, codec=CODEC, obs=obs)
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


class TestWalBodiesByReference:
    def _vote_then_decide(self, replica, persister, slot):
        """What a follower journals for one slot: its vote, then the decision."""
        batch = _batch(slot)
        assert replica.restore_slot_state(slot, (0, 0, batch, batch, ()))
        replica.dirty_slots.add(slot)
        persister.after_activation()
        assert replica.restore_decided(slot, batch)
        persister.after_activation()

    def test_each_body_is_journaled_in_full_once_per_slot(self, tmp_path):
        slots = 6
        a = _replica()
        persister = _persister(tmp_path, a, codec=CODEC)
        persister.recover()
        for slot in range(slots):
            self._vote_then_decide(a, persister, slot)
        persister.close(hard=True)
        (segment,) = list_segments(persister.storage.dir)
        values = _wal_values(CODEC, segment)
        for slot in range(slots):
            mine = [value for where, value in values if where == slot]
            # val + initial_val of the vote, then the decision: one body.
            assert [type(value) for value in mine] == [CommandBatch, BatchRef, BatchRef]
            assert mine[1] == mine[2] == mine[0].ref

        b = _replica()
        _persister(tmp_path, b, codec=CODEC).recover()
        assert _state(b) == _state(a)
        assert len(b.store.log) == 3 * slots

    def test_restart_mid_slot_restores_vote_and_proposal_as_the_same_batch(
        self, tmp_path
    ):
        a = _replica()
        persister = _persister(tmp_path, a, codec=CODEC)
        persister.recover()
        batch = _batch(7)
        a.restore_slot_state(7, (2, 1, batch, batch, ()))
        a.dirty_slots.add(7)
        persister.after_activation()
        persister.close(hard=True)

        b = _replica()
        _persister(tmp_path, b, codec=CODEC).recover()
        inner = b._slots[7]
        assert inner.val == batch and inner.initial_val == batch
        assert inner.val is inner.initial_val
        assert b._inflight[7] == batch

    def test_slot_open_across_a_rotation_is_journaled_again_in_full(
        self, tmp_path
    ):
        a = _replica()
        persister = _persister(tmp_path, a, codec=CODEC, snapshot_every=2)
        persister.recover()
        open_batch = _batch(5)
        a.restore_slot_state(5, (1, 1, open_batch, open_batch, ()))
        a.dirty_slots.add(5)
        persister.after_activation()
        _decide_batches(a, range(2))
        persister.after_activation()  # snapshot: rotates to a new segment
        persister.writer.drain()
        # Retention already retired the old segment (the one image needs
        # none below its wal_seq), and the new one knows nothing of it: the
        # open slot's state is there again, body in full.
        (new,) = list_segments(persister.storage.dir)
        assert [(slot, type(value)) for slot, value in _wal_values(CODEC, new)] == [
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
        assert _wal_values(CODEC, new)[2:] == [(5, open_batch.ref)]

        # The image plus the segments from its wal_seq on are enough.
        b = _replica()
        _persister(tmp_path, b, codec=CODEC).recover()
        assert b.decided[5] == open_batch
        assert b.applied_upto == 2
