"""Tests for the KV state machine and command ordering."""

import pytest

from repro.core import BOTTOM
from repro.smr import KVCommand, KVStore, NOOP_COMMAND


class TestCommandOrdering:
    """Commands order through ``sort_key`` only: a slot value is always a
    batch, and a batch compares its members' sort keys."""

    def test_total_order(self):
        a = KVCommand(op="put", key="a", value=1, command_id="1")
        b = KVCommand(op="put", key="b", value=1, command_id="2")
        assert a.sort_key() < b.sort_key()
        assert a.sort_key() <= a.sort_key()
        with pytest.raises(TypeError):  # a command is not a consensus value
            a < b  # noqa: B015

    def test_compares_above_bottom(self):
        command = KVCommand(op="get", key="k", command_id="1")
        assert command >= BOTTOM
        assert command > BOTTOM
        assert BOTTOM < command

    def test_distinct_ids_never_tie(self):
        a = KVCommand(op="put", key="k", value=1, command_id="1")
        b = KVCommand(op="put", key="k", value=1, command_id="2")
        assert a != b
        assert a.sort_key() != b.sort_key()

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            KVCommand(op="frobnicate", key="k")


class TestStoreSemantics:
    def test_put_then_get(self):
        store = KVStore()
        assert store.apply(KVCommand(op="put", key="k", value=5, command_id="1")) == 5
        assert store.apply(KVCommand(op="get", key="k", command_id="2")) == 5

    def test_get_missing(self):
        store = KVStore()
        assert store.apply(KVCommand(op="get", key="nope", command_id="1")) is None

    def test_cas_success_and_failure(self):
        store = KVStore()
        store.apply(KVCommand(op="put", key="k", value=1, command_id="1"))
        ok = store.apply(
            KVCommand(op="cas", key="k", value=2, expected=1, command_id="2")
        )
        assert ok is True
        bad = store.apply(
            KVCommand(op="cas", key="k", value=9, expected=1, command_id="3")
        )
        assert bad is False
        assert store.data["k"] == 2

    def test_noop(self):
        store = KVStore()
        assert store.apply(NOOP_COMMAND) is None
        assert store.data == {}

    def test_duplicate_suppression(self):
        store = KVStore()
        command = KVCommand(op="put", key="k", value=1, command_id="1")
        store.apply(command)
        assert store.apply(command) == "duplicate"
        assert len(store.log) == 1

    def test_log_and_snapshot(self):
        store = KVStore()
        store.apply(KVCommand(op="put", key="a", value=1, command_id="1"))
        store.apply(KVCommand(op="put", key="b", value=2, command_id="2"))
        assert [c.command_id for c in store.log] == ["1", "2"]
        snap = store.snapshot()
        snap["a"] = 99
        assert store.data["a"] == 1  # snapshot is a copy


class TestDurableState:
    def test_snapshot_state_round_trip(self):
        store = KVStore()
        store.apply(KVCommand(op="put", key="a", value=1, command_id="1"))
        store.apply(KVCommand(op="cas", key="a", value=2, expected=1, command_id="2"))
        restored = KVStore.from_state({"data": store.data, "log": store.log})
        assert restored.data == store.data
        assert restored.applied_ids == store.applied_ids
        assert restored.log == store.log

    def test_duplicate_suppression_survives_restore(self):
        store = KVStore()
        command = KVCommand(op="put", key="k", value=1, command_id="1")
        store.apply(command)
        restored = KVStore.from_state({"data": store.data, "log": store.log})
        assert restored.apply(command) == "duplicate"
        assert len(restored.log) == 1

    def test_restored_store_is_independent(self):
        store = KVStore()
        store.apply(KVCommand(op="put", key="k", value=1, command_id="1"))
        restored = KVStore.from_state({"data": store.data, "log": store.log})
        store.apply(KVCommand(op="put", key="k", value=9, command_id="2"))
        assert restored.data["k"] == 1
        assert len(restored.log) == 1
