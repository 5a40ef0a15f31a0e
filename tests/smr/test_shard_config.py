"""Apply-time semantics of the shard config vocabulary.

The epoch-fencing rule lives in :meth:`repro.smr.kvstore.KVStore.apply`:
a replicated ``shard_prepare`` makes every replica refuse later data
commands for the fenced range *at apply time*, deterministically, without
logging them or marking their ids applied — which is exactly what lets a
command that raced into the log behind a fence commit in the range's new
home instead of being lost or double-applied.
"""

import pytest

from repro.smr.kvstore import (
    SHARD_META_PREFIX,
    WRONG_SHARD,
    KVCommand,
    KVStore,
    key_slot,
)

SLOTS = 16


def _fenced_key(lo: int = 0, hi: int = 8) -> str:
    for index in range(1000):
        key = f"key-{index}"
        if lo <= key_slot(key, SLOTS) < hi:
            return key
    raise AssertionError("no key hashed into the range")


def _unfenced_key(lo: int = 0, hi: int = 8) -> str:
    for index in range(1000):
        key = f"key-{index}"
        if not (lo <= key_slot(key, SLOTS) < hi):
            return key
    raise AssertionError("no key hashed outside the range")


def _prepare(epoch: int = 1, lo: int = 0, hi: int = 8, dest: int = 1) -> KVCommand:
    return KVCommand(
        op="config",
        key="",
        value={
            "kind": "shard_prepare",
            "lo": lo,
            "hi": hi,
            "slots": SLOTS,
            "epoch": epoch,
            "dest": dest,
        },
        command_id=f"__shard:prepare:{epoch}:{lo}-{hi}",
    )


def _install(
    epoch: int = 1,
    lo: int = 0,
    hi: int = 8,
    data=None,
    applied_ids=(),
    source: int = 0,
) -> KVCommand:
    return KVCommand(
        op="config",
        key="",
        value={
            "kind": "shard_install",
            "lo": lo,
            "hi": hi,
            "slots": SLOTS,
            "epoch": epoch,
            "source": source,
            "data": dict(data or {}),
            "applied_ids": list(applied_ids),
        },
        command_id=f"__shard:install:{epoch}:{lo}-{hi}",
    )


def _release(epoch: int = 1, lo: int = 0, hi: int = 8) -> KVCommand:
    return KVCommand(
        op="config",
        key="",
        value={
            "kind": "shard_release",
            "lo": lo,
            "hi": hi,
            "slots": SLOTS,
            "epoch": epoch,
        },
        command_id=f"__shard:release:{epoch}:{lo}-{hi}",
    )


def test_fence_refuses_data_commands_without_side_effects():
    store = KVStore()
    key = _fenced_key()
    assert store.apply(_prepare()) == "fenced"
    refused = KVCommand(op="put", key=key, value=1, command_id="c1")
    assert store.apply(refused) == WRONG_SHARD
    # Epoch fencing must leave zero trace: the command stays free to
    # commit (and count as first application) in the range's new home.
    assert "c1" not in store.applied_ids
    assert all(c.command_id != "c1" for c in store.log)
    assert key not in store.data
    # gets and cas are fenced identically.
    assert store.apply(KVCommand(op="get", key=key, command_id="c2")) == WRONG_SHARD
    assert (
        store.apply(KVCommand(op="cas", key=key, expected=None, value=2, command_id="c3"))
        == WRONG_SHARD
    )


def test_fence_spares_other_ranges_and_reserved_keys():
    store = KVStore()
    store.apply(_prepare())
    outside = _unfenced_key()
    assert store.apply(KVCommand(op="put", key=outside, value=7, command_id="c4")) == 7
    # Reserved (control-plane) keys are never routed, hence never fenced —
    # the catalog group must accept __placement__ writes regardless of map.
    assert (
        store.apply(KVCommand(op="put", key="__placement__", value={"epoch": 9}, command_id="c5"))
        == {"epoch": 9}
    )


def test_fence_applies_to_duplicates_first():
    # A command applied BEFORE the fence stays applied; re-application
    # after the fence is still a duplicate, not a refusal.
    store = KVStore()
    key = _fenced_key()
    command = KVCommand(op="put", key=key, value=1, command_id="c6")
    assert store.apply(command) == 1
    store.apply(_prepare())
    assert store.apply(command) == "duplicate"


def test_install_carries_data_and_applied_ids_and_reowns():
    source = KVStore()
    key = _fenced_key()
    source.apply(KVCommand(op="put", key=key, value="v", command_id="c7"))
    source.apply(_prepare())

    dest = KVStore()
    assert (
        dest.apply(_install(data={key: "v"}, applied_ids=["c7"]))
        == "installed"
    )
    assert dest.data[key] == "v"
    # Idempotence travels with the range: the same command retried at the
    # destination is a duplicate, not a second application.
    assert (
        dest.apply(KVCommand(op="put", key=key, value="v", command_id="c7"))
        == "duplicate"
    )
    # The destination now owns the range: no fence, commands apply.
    assert dest.fence_for(key) is None
    assert dest.apply(KVCommand(op="put", key=key, value="w", command_id="c8")) == "w"


def test_higher_epoch_install_unfences_a_returned_range():
    store = KVStore()
    key = _fenced_key()
    store.apply(_prepare(epoch=1))
    assert store.fence_for(key) is not None
    store.apply(_install(epoch=2, data={}, applied_ids=[]))
    assert store.fence_for(key) is None


def test_release_deletes_only_in_range_data_keys():
    store = KVStore()
    fenced, outside = _fenced_key(), _unfenced_key()
    store.apply(KVCommand(op="put", key=fenced, value=1, command_id="c9"))
    store.apply(KVCommand(op="put", key=outside, value=2, command_id="c10"))
    store.apply(_prepare())
    assert store.apply(_release()) == "released"
    assert fenced not in store.data
    assert store.data[outside] == 2
    # The fence entry itself survives (it is __-reserved): the source
    # keeps refusing strays for the range it gave away.
    assert store.fence_for(fenced) is not None


def test_config_commands_are_idempotent_by_id():
    store = KVStore()
    assert store.apply(_prepare()) == "fenced"
    assert store.apply(_prepare()) == "duplicate"
    version = store.data[SHARD_META_PREFIX + "version"]
    store.apply(_prepare())
    assert store.data[SHARD_META_PREFIX + "version"] == version


def test_shard_entries_sorted_by_epoch_and_cached():
    store = KVStore()
    store.apply(_install(epoch=3, lo=8, hi=12))
    store.apply(_prepare(epoch=1))
    entries = store.shard_entries()
    assert [info["epoch"] for _, info in entries] == [1, 3]
    assert store.shard_entries() is entries  # cache hit until next config


def test_commands_with_dict_values_are_hashable():
    # The consensus layer buckets fast-path votes by proposal value, so
    # config commands (dict payloads) must hash like any other command.
    command = _prepare()
    assert hash(command) == hash(
        KVCommand(op="config", key="", value={"different": True}, command_id=command.command_id)
    )
    assert len({command, _install(), _release()}) == 3


def test_shard_state_survives_snapshot_round_trip():
    store = KVStore()
    key = _fenced_key()
    store.apply(_prepare())
    restored = KVStore.from_state({"data": store.data, "log": store.log})
    assert restored.fence_for(key) is not None
    assert restored.apply(KVCommand(op="put", key=key, value=1, command_id="c11")) == WRONG_SHARD


def test_wrong_shard_marker_is_reserved():
    with pytest.raises(ValueError):
        KVCommand(op="shard", key="x")  # unknown ops still rejected
    assert WRONG_SHARD.startswith("__")
