"""Batching and pipelining semantics, strictly above the slot protocol.

The throughput knobs added to :class:`~repro.smr.log.SMRReplica` must not
change what the per-slot consensus instances see: a
:class:`~repro.smr.kvstore.CommandBatch` is just another totally-ordered
proposal value, and ``window`` only changes how many of the proxy's own
slots are open at once. These tests pin the semantics the live path
relies on: apply order equals submit order, a command riding two batches
applies exactly once, and pipelined slots genuinely overlap.
"""

import pytest

from repro.core import ConfigurationError
from repro.core.values import BOTTOM
from repro.omega import static_omega_factory
from repro.smr import (
    CommandBatch,
    KVCommand,
    check_logs_consistent,
    put_get_workload,
    run_kv_workload,
    smr_factory,
)
from repro.smr.client import ClientOp

N, F, E = 3, 1, 1


def factory(batch_size=1, window=1):
    return smr_factory(
        F,
        E,
        omega_factory=static_omega_factory(0),
        batch_size=batch_size,
        window=window,
    )


def _put(index, command_id=None, key="k"):
    return KVCommand(
        op="put", key=key, value=index, command_id=command_id or f"cmd-{index}"
    )


def _ops(commands, proxy=0, time=0.0):
    return [ClientOp(time=time, proxy=proxy, command=c) for c in commands]


class TestConfiguration:
    def test_batch_size_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="batch_size"):
            factory(batch_size=0)(0, N)

    def test_window_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="window"):
            factory(window=0)(0, N)


class TestCommandBatchValue:
    """A batch must behave like any other Figure 1 proposal value."""

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            CommandBatch(commands=())

    def test_command_id_is_the_batch_id(self):
        batch = CommandBatch((_put(0),), batch_id="__batch:0:0__")
        assert batch.command_id == "__batch:0:0__"

    def test_batches_are_totally_ordered_and_hashable(self):
        a = CommandBatch((_put(0),), batch_id="a")
        b = CommandBatch((_put(1),), batch_id="b")
        assert (a < b) != (b < a)
        assert a <= a and a >= a
        assert len({a, b, a}) == 2

    def test_bottom_is_below_every_batch(self):
        batch = CommandBatch((_put(0),), batch_id="a")
        assert BOTTOM < batch
        assert batch > BOTTOM
        assert not (batch < BOTTOM)

    def test_a_batch_does_not_order_against_a_bare_command(self):
        # Every slot value is a batch, gap-repair no-ops included, so a
        # bare command never races one for a slot.
        batch = CommandBatch((_put(7),), batch_id="b")
        with pytest.raises(TypeError):
            batch < _put(3)  # noqa: B015


class TestBatchingSemantics:
    def test_batch_applies_in_submit_order_on_every_replica(self):
        commands = [_put(i) for i in range(9)]
        outcome = run_kv_workload(
            factory(batch_size=8), N, _ops(commands), until=60.0
        )
        assert not outcome.unfinished
        # First submission opens slot 0 alone; the other eight commands
        # queue behind it and ride slot 1 as one batch.
        proxy = outcome.replicas[0]
        assert isinstance(proxy.decided[1], CommandBatch)
        assert [c.command_id for c in proxy.decided[1].commands] == [
            f"cmd-{i}" for i in range(1, 9)
        ]
        for replica in outcome.replicas:
            applied = [c.command_id for c in replica.store.log]
            assert applied == [f"cmd-{i}" for i in range(9)]
        assert check_logs_consistent(outcome.replicas) == []

    def test_batch_size_one_proposes_one_member_batches(self):
        ops = put_get_workload(6, ["x"], proxies=list(range(N)), spacing=4.0)
        outcome = run_kv_workload(factory(), N, ops, until=80.0)
        assert not outcome.unfinished
        for value in outcome.replicas[0].decided.values():
            assert type(value) is CommandBatch and len(value.commands) == 1
            assert value.batch_id.startswith("__batch:")

    def test_duplicate_command_across_proxies_applies_once(self):
        # The same command submitted to two proxies rides two different
        # batches racing slot 0; whichever wins, the store's
        # idempotence-by-id admits it exactly once.
        dup = _put(0, command_id="dup")
        ops = [
            ClientOp(time=0.0, proxy=0, command=dup),
            ClientOp(time=0.0, proxy=1, command=dup),
        ]
        outcome = run_kv_workload(factory(batch_size=4), N, ops, until=200.0)
        assert not outcome.unfinished
        assert check_logs_consistent(outcome.replicas) == []
        for replica in outcome.replicas:
            applied = [c.command_id for c in replica.store.log]
            assert applied.count("dup") == 1
            assert len(applied) == len(set(applied))

    def test_contended_batched_workload_commits_each_exactly_once(self):
        ops = put_get_workload(10, ["x"], proxies=[0, 1], spacing=0.0)
        outcome = run_kv_workload(
            factory(batch_size=4, window=2), N, ops, until=300.0
        )
        assert not outcome.unfinished
        assert check_logs_consistent(outcome.replicas) == []
        for replica in outcome.replicas:
            applied = [c.command_id for c in replica.store.log]
            assert len(applied) == len(set(applied))


class TestWindowPipelining:
    def test_window_overlaps_slots(self):
        # Four commands at t=0 with window=4 open four slots at once:
        # under FixedLatency(1.0) all commit on the fast path at 2Δ.
        commands = [_put(i) for i in range(4)]
        outcome = run_kv_workload(
            factory(window=4), N, _ops(commands), until=60.0
        )
        assert not outcome.unfinished
        assert sorted(outcome.commit_latency.values()) == [2.0, 2.0, 2.0, 2.0]

    def test_window_one_serializes_slots(self):
        # The pre-pipelining discipline: one slot in flight, so the same
        # submissions commit at 2, 4, 6, 8.
        commands = [_put(i) for i in range(4)]
        outcome = run_kv_workload(factory(), N, _ops(commands), until=60.0)
        assert not outcome.unfinished
        assert sorted(outcome.commit_latency.values()) == [2.0, 4.0, 6.0, 8.0]

    def test_pipelined_slots_apply_in_slot_order(self):
        commands = [_put(i, key=f"k{i % 2}") for i in range(8)]
        outcome = run_kv_workload(
            factory(window=4), N, _ops(commands), until=120.0
        )
        assert not outcome.unfinished
        for replica in outcome.replicas:
            applied = [c.command_id for c in replica.store.log]
            assert applied == [f"cmd-{i}" for i in range(8)]
        stores = [r.store.snapshot() for r in outcome.replicas]
        assert all(store == stores[0] for store in stores)
