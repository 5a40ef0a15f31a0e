"""WAL framing, group commit, and torn-tail recovery.

The hypothesis properties pin the two contracts the crash-recovery path
leans on: records round-trip bit-exactly through the frame format (and
typed records through the wire codec), and a segment truncated at *any*
byte boundary reopens to exactly the prefix of fully-written records —
never an exception, never a phantom record — and, for a segment the
persister wrote with batch bodies by reference, never a reference whose
body fell beyond the cut.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.values import BOTTOM
from repro.net.codec import MessageCodec
from repro.smr.kvstore import CommandBatch, KVCommand
from repro.smr.log import SMRReplica
from repro.storage import (
    NodeStorage,
    ReplicaPersister,
    WalDecision,
    WalSlotState,
    decode_record,
    encode_record,
)
from repro.storage.wal import (
    MAX_RECORD_BYTES,
    WriteAheadLog,
    list_segments,
    next_segment_seq,
    pack_record,
    replay_directory,
    scan_segment,
    segment_name,
    segment_seq,
)

CODEC = MessageCodec()


class TestSegmentNaming:
    def test_name_round_trip(self, tmp_path):
        assert segment_name(7) == "wal-00000007.log"
        assert segment_seq(tmp_path / segment_name(7)) == 7

    def test_foreign_files_ignored(self, tmp_path):
        (tmp_path / "wal-0000000x.log").write_bytes(b"junk")
        (tmp_path / "notes.txt").write_bytes(b"junk")
        (tmp_path / segment_name(3)).write_bytes(b"")
        assert [segment_seq(p) for p in list_segments(tmp_path)] == [3]

    def test_next_seq(self, tmp_path):
        assert next_segment_seq(tmp_path) == 1
        (tmp_path / segment_name(1)).write_bytes(b"")
        (tmp_path / segment_name(4)).write_bytes(b"")
        assert next_segment_seq(tmp_path) == 5


class TestWriteAheadLog:
    def test_append_is_buffered_until_commit(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path, 1, fsync=False)
        wal.append(b"alpha")
        wal.append(b"beta")
        assert wal.pending_records == 2
        # Nothing on disk until the group commit.
        assert scan_segment(wal.path).payloads == ()
        assert wal.commit() == 2
        assert wal.pending_records == 0
        assert scan_segment(wal.path).payloads == (b"alpha", b"beta")
        wal.close()

    def test_commit_without_pending_is_noop(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path, 1, fsync=False)
        assert wal.commit() == 0
        wal.close()

    def test_abandon_drops_uncommitted_records(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path, 1, fsync=False)
        wal.append(b"durable")
        wal.commit()
        wal.append(b"lost-at-sigkill")
        wal.abandon()
        assert scan_segment(wal.path).payloads == (b"durable",)

    def test_close_commits_the_tail(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path, 1, fsync=False)
        wal.append(b"tail")
        wal.close()
        assert scan_segment(wal.path).payloads == (b"tail",)

    def test_writer_never_appends_to_existing_segment(self, tmp_path):
        WriteAheadLog.create(tmp_path, 1, fsync=False).close()
        with pytest.raises(FileExistsError):
            WriteAheadLog.create(tmp_path, 1, fsync=False)

    def test_closed_segment_rejects_appends(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path, 1, fsync=False)
        wal.close()
        with pytest.raises(ValueError):
            wal.append(b"late")

    def test_oversize_record_rejected(self, tmp_path):
        wal = WriteAheadLog.create(tmp_path, 1, fsync=False)
        with pytest.raises(ValueError):
            wal.append(b"x" * (MAX_RECORD_BYTES + 1))
        wal.close()

    def test_fsync_mode_records_fsync_counters(self, tmp_path):
        from repro.obs import Observability

        obs = Observability(node=0)
        wal = WriteAheadLog.create(tmp_path, 1, fsync=True, obs=obs)
        wal.append(b"one")
        wal.append(b"two")
        wal.commit()
        wal.close()
        counters = obs.registry.snapshot()["counters"]
        assert counters["storage.wal_appends"] == 2
        # One group commit, hence one fsync for both records.
        assert counters["storage.wal_commits"] == 1
        assert counters["storage.wal_fsyncs"] == 1


class TestTornTail:
    def test_garbage_tail_truncates_cleanly(self, tmp_path):
        path = tmp_path / segment_name(1)
        path.write_bytes(pack_record(b"good") + b"\x00\x01partial")
        result = scan_segment(path)
        assert result.payloads == (b"good",)
        assert result.torn

    def test_corrupt_crc_ends_the_scan(self, tmp_path):
        path = tmp_path / segment_name(1)
        frames = pack_record(b"first") + pack_record(b"second")
        # Flip one payload byte of the second record: its CRC fails, the
        # scan keeps the first record and reports a torn tail.
        mutated = bytearray(frames)
        mutated[-1] ^= 0xFF
        path.write_bytes(bytes(mutated))
        result = scan_segment(path)
        assert result.payloads == (b"first",)
        assert result.torn

    def test_absurd_length_treated_as_torn(self, tmp_path):
        path = tmp_path / segment_name(1)
        path.write_bytes(
            pack_record(b"ok") + (MAX_RECORD_BYTES + 1).to_bytes(4, "big") + b"\x00" * 64
        )
        result = scan_segment(path)
        assert result.payloads == (b"ok",)
        assert result.torn

    def test_replay_directory_orders_and_counts_torn(self, tmp_path):
        (tmp_path / segment_name(2)).write_bytes(pack_record(b"late") + b"torn")
        (tmp_path / segment_name(1)).write_bytes(pack_record(b"early"))
        payloads, torn = replay_directory(tmp_path)
        assert payloads == [b"early", b"late"]
        assert torn == 1


# ----------------------------------------------------------------------
# Properties.
# ----------------------------------------------------------------------

_payloads = st.lists(st.binary(max_size=64), max_size=8)

_REFERENCED = {}


def _batch(slot):
    return CommandBatch(
        tuple(
            KVCommand(op="put", key=f"k{i}", value=slot, command_id=f"b{slot}.{i}")
            for i in range(3)
        ),
        batch_id=f"__batch:0:{slot}__",
    )


def _persister(directory, replica):
    return ReplicaPersister(NodeStorage(directory, 0), replica, CODEC, fsync=False)


def _referenced_segment(tmp_path_factory):
    """Bytes of one segment as the persister writes it for four batched
    slots — vote (body, then a reference to it), then decision (a
    reference) — and the end offset of each slot's decision record."""
    if not _REFERENCED:
        replica = SMRReplica(0, 5, 2, 2)
        persister = _persister(tmp_path_factory.mktemp("referenced"), replica)
        persister.recover()
        decided_at = []
        for slot in range(4):
            batch = _batch(slot)
            replica.restore_slot_state(slot, 0, 0, value=batch, initial_value=batch)
            replica.dirty_slots.add(slot)
            persister.after_activation()
            replica.restore_decided(slot, batch)
            persister.after_activation()
            decided_at.append(persister._wal.path.stat().st_size)
        persister.close()
        (segment,) = list_segments(persister.storage.dir)
        _REFERENCED.update(blob=segment.read_bytes(), decided_at=decided_at)
    return _REFERENCED["blob"], _REFERENCED["decided_at"]


class TestProperties:
    @given(payloads=_payloads)
    @settings(max_examples=60, deadline=None)
    def test_committed_records_round_trip(self, tmp_path_factory, payloads):
        directory = tmp_path_factory.mktemp("wal")
        wal = WriteAheadLog.create(directory, 1, fsync=False)
        for payload in payloads:
            wal.append(payload)
        wal.close()
        result = scan_segment(wal.path)
        assert result.payloads == tuple(payloads)
        assert not result.torn

    @given(payloads=_payloads, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_any_truncation_reopens_to_exact_prefix(
        self, tmp_path_factory, payloads, data
    ):
        """Cutting the file at any byte yields the fully-written prefix."""
        frames = [pack_record(payload) for payload in payloads]
        blob = b"".join(frames)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob)))
        path = tmp_path_factory.mktemp("wal") / segment_name(1)
        path.write_bytes(blob[:cut])
        result = scan_segment(path)
        # Expected: every record whose full frame fits below the cut.
        expected, offset = [], 0
        for payload, frame in zip(payloads, frames):
            if offset + len(frame) > cut:
                break
            expected.append(payload)
            offset += len(frame)
        assert result.payloads == tuple(expected)
        assert result.good_bytes == offset
        assert result.torn == (offset != cut)

        # The same for a segment holding bodies by reference: whatever
        # prefix survives, every reference in it resolves, so recovery
        # restores exactly the slots whose decision fits below the cut.
        blob, decided_at = _referenced_segment(tmp_path_factory)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob)))
        directory = tmp_path_factory.mktemp("wal")
        NodeStorage(directory, 0).dir.joinpath(segment_name(1)).write_bytes(blob[:cut])
        replica = SMRReplica(0, 5, 2, 2)
        persister = _persister(directory, replica)
        persister.recover()
        persister.close()
        survived = sum(1 for end in decided_at if end <= cut)
        assert replica.applied_upto == survived
        assert replica.store.log == [
            command for slot in range(survived) for command in _batch(slot).commands
        ]

    @given(
        slot=st.integers(min_value=0, max_value=2**31),
        op=st.sampled_from(["put", "get", "cas"]),
        key=st.text(max_size=8),
        value=st.one_of(st.none(), st.integers(-5, 5), st.text(max_size=8)),
        command_id=st.text(max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_decision_records_round_trip_through_codec(
        self, slot, op, key, value, command_id
    ):
        record = WalDecision(
            slot=slot,
            value=KVCommand(op=op, key=key, value=value, command_id=command_id),
        )
        assert decode_record(CODEC, encode_record(CODEC, record)) == record

    @given(
        slot=st.integers(min_value=0, max_value=2**31),
        bal=st.integers(min_value=0, max_value=50),
        vbal=st.integers(min_value=-1, max_value=50),
        voted=st.booleans(),
        sent_twoa=st.lists(st.integers(0, 20), max_size=4, unique=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_slot_state_records_round_trip_through_codec(
        self, slot, bal, vbal, voted, sent_twoa
    ):
        vote = KVCommand(op="put", key="k", value=1, command_id="c") if voted else BOTTOM
        record = WalSlotState(
            slot=slot,
            bal=bal,
            vbal=vbal,
            value=vote,
            initial_value=BOTTOM,
            sent_twoa=tuple(sorted(sent_twoa)),
        )
        assert decode_record(CODEC, encode_record(CODEC, record)) == record
