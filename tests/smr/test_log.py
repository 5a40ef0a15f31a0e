"""Tests for the SMR layer: proxies, slot races, gap repair, consistency."""

import pytest

from repro.core import ConfigurationError
from repro.omega import static_omega_factory
from repro.smr import (
    CommandBatch,
    KVCommand,
    SMRReplica,
    check_logs_consistent,
    put_get_workload,
    run_kv_workload,
    smr_factory,
)
from repro.sim import CrashPlan, FixedLatency

N, F, E = 5, 2, 2


def factory():
    return smr_factory(F, E, omega_factory=static_omega_factory(0))


class TestConfiguration:
    def test_bound_applies(self):
        with pytest.raises(ConfigurationError):
            SMRReplica(0, 4, F, E)

    def test_task_config_rejected(self):
        from repro.protocols import TwoStepConfig

        with pytest.raises(ConfigurationError, match="object"):
            SMRReplica(0, 5, F, E, consensus_config=TwoStepConfig(f=F, e=E))

    def test_command_needs_id(self):
        outcome = run_kv_workload(factory(), N, [], until=5.0)
        replica = outcome.replicas[0]
        with pytest.raises(ConfigurationError, match="command_id"):
            replica.submit(_FakeCtx(), KVCommand(op="put", key="k", value=1))


class _FakeCtx:
    now = 0.0
    pid = 0
    n = N

    def send(self, dst, message):
        pass

    def set_timer(self, name, delay):
        pass

    def cancel_timer(self, name):
        pass

    def decide(self, value):
        pass

    @property
    def others(self):
        return []


class TestUncontended:
    def test_fast_path_commit_in_two_delays(self):
        ops = put_get_workload(6, ["x", "y"], proxies=list(range(N)), spacing=4.0)
        outcome = run_kv_workload(factory(), N, ops, until=80.0)
        assert not outcome.unfinished
        assert all(lat == 2.0 for lat in outcome.commit_latency.values())

    def test_results_correct(self):
        ops = [
            _op(0.0, 0, KVCommand(op="put", key="k", value=7, command_id="w")),
            _op(6.0, 1, KVCommand(op="get", key="k", command_id="r")),
        ]
        outcome = run_kv_workload(factory(), N, ops, until=60.0)
        assert outcome.results["w"] == 7
        assert outcome.results["r"] == 7

    def test_logs_consistent(self):
        ops = put_get_workload(8, ["x"], proxies=list(range(N)), spacing=3.0)
        outcome = run_kv_workload(factory(), N, ops, until=100.0)
        assert check_logs_consistent(outcome.replicas) == []

    def test_stores_converge(self):
        ops = put_get_workload(6, ["x", "y"], proxies=list(range(N)), spacing=3.0)
        outcome = run_kv_workload(factory(), N, ops, until=100.0)
        stores = [r.store.snapshot() for r in outcome.replicas]
        assert all(store == stores[0] for store in stores)


def _op(time, proxy, command):
    from repro.smr.client import ClientOp

    return ClientOp(time=time, proxy=proxy, command=command)


class TestContended:
    def test_slot_races_resolve(self):
        ops = put_get_workload(6, ["x"], proxies=[0, 1, 2], spacing=0.0)
        outcome = run_kv_workload(factory(), N, ops, until=200.0)
        assert not outcome.unfinished
        assert check_logs_consistent(outcome.replicas) == []

    def test_losers_eventually_commit(self):
        ops = put_get_workload(4, ["x"], proxies=[0, 1], spacing=0.0)
        outcome = run_kv_workload(factory(), N, ops, until=200.0)
        # Every command committed exactly once across the log.
        log = outcome.replicas[0].committed_log()
        ids = [
            c.command_id
            for batch in log.values()
            for c in batch.commands
            if not c.command_id.startswith("__")
        ]
        assert sorted(ids) == sorted(op.command.command_id for op in ops)

    def test_no_duplicate_application(self):
        ops = put_get_workload(4, ["x"], proxies=[0, 1], spacing=0.0)
        outcome = run_kv_workload(factory(), N, ops, until=200.0)
        for replica in outcome.replicas:
            applied = [c.command_id for c in replica.store.log]
            assert len(applied) == len(set(applied))


class TestCrashes:
    def test_proxy_crash_spares_other_commands(self):
        ops = put_get_workload(6, ["x", "y"], proxies=[0, 1, 2], spacing=2.0)
        outcome = run_kv_workload(
            factory(), N, ops, until=300.0, crashes=CrashPlan.at(1.0, [1])
        )
        dead_proxy_cmds = {op.command.command_id for op in ops if op.proxy == 1}
        assert set(outcome.unfinished) <= dead_proxy_cmds
        live = [r for r in outcome.replicas if r.pid != 1]
        assert check_logs_consistent(live) == []

    def test_gap_repair_unblocks_log(self):
        # Proxy 1 crashes mid-propose; later slots decide; the leader's
        # gap repair noops the stuck slot so application proceeds.
        ops = put_get_workload(5, ["x", "y"], proxies=[0, 1, 2, 3], spacing=2.0)
        outcome = run_kv_workload(
            factory(), N, ops, until=400.0, crashes=CrashPlan.at(2.5, [1])
        )
        live = [r for r in outcome.replicas if r.pid != 1]
        decided_slots = set(live[0].decided)
        if decided_slots:
            horizon = max(decided_slots)
            for replica in live:
                assert replica.applied_upto >= horizon, (
                    f"replica {replica.pid} stuck at {replica.applied_upto}"
                )

    def test_e_crashes_still_fast_for_survivors(self):
        ops = [
            _op(30.0, 2, KVCommand(op="put", key="k", value=1, command_id="late")),
        ]
        outcome = run_kv_workload(
            factory(), N, ops, until=120.0, crashes=CrashPlan.at_start([3, 4])
        )
        assert outcome.commit_latency.get("late") == 2.0


def _put(slot, cid=None):
    return KVCommand(
        op="put", key=f"k{slot % 2}", value=slot, command_id=cid or f"c{slot}"
    )


def _one(slot, cid=None):
    """A one-member batch: the slot value ``batch_size=1`` proposes."""
    return CommandBatch((_put(slot, cid),), batch_id=f"__batch:0:{slot}__")


class TestDurabilitySeams:
    """The offline restore/truncate surface ``repro.storage`` drives."""

    def _replica(self, pid=0):
        return SMRReplica(pid, N, F, E)

    def test_restore_decided_applies_ready_prefix(self):
        replica = self._replica()
        assert replica.restore_decided(1, _one(1))  # gap at 0: nothing applies
        assert replica.applied_upto == 0
        assert replica.restore_decided(0, _one(0))  # gap closes: both apply
        assert replica.applied_upto == 2
        assert [c.command_id for c in replica.store.log] == ["c0", "c1"]

    def test_restore_decided_rejects_stale_and_duplicate(self):
        replica = self._replica()
        replica.restore_decided(0, _one(0))
        assert not replica.restore_decided(0, _one(0))  # already decided
        replica.truncate_below(replica.applied_upto)
        assert not replica.restore_decided(0, _one(0))  # below the frontier

    def test_truncate_at_boundary(self):
        replica = self._replica()
        for slot in range(3):
            replica.restore_decided(slot, _one(slot))
        assert replica.truncate_below(replica.applied_upto) == 3
        assert replica.decided == {}
        assert replica._slots == {}
        # The applied log — the convergence witness — is untouched.
        assert [c.command_id for c in replica.store.log] == ["c0", "c1", "c2"]
        # Truncation is idempotent and capped at the frontier.
        assert replica.truncate_below(10_000) == 0

    def test_truncate_then_append(self):
        replica = self._replica()
        for slot in range(3):
            replica.restore_decided(slot, _one(slot))
        replica.truncate_below(replica.applied_upto)
        assert replica.restore_decided(3, _one(3))
        assert replica.applied_upto == 4
        assert [c.command_id for c in replica.store.log][-1] == "c3"

    def test_restore_then_decide(self):
        replica = self._replica()
        vote = _one(0, cid="journaled")
        assert replica.restore_slot_state(0, (2, 1, vote, vote, (0, 2)))
        inner = replica._slots[0]
        assert (inner.bal, inner.vbal, inner.val) == (2, 1, vote)
        assert inner._sent_twoa == {0, 2}
        # A later WAL record decides the same slot: it applies normally.
        assert replica.restore_decided(0, vote)
        assert replica.applied_upto == 1
        assert replica.store.log[-1].command_id == "journaled"
        # And replaying the (older) slot-state record is now a no-op.
        assert not replica.restore_slot_state(0, (2, 1, vote, vote, ()))

    def test_truncation_requeues_uncommitted_proposal(self):
        replica = self._replica()
        mine = _one(0, cid="mine")
        replica.restore_slot_state(0, (0, -1, mine, mine, ()))
        assert replica._inflight[0] == mine
        # A state transfer jumps the frontier past our losing slot.
        donor = self._replica(pid=1)
        for slot in range(5):
            donor.restore_decided(slot, _one(slot, cid=f"peer{slot}"))
        replica.restore_store({"data": donor.store.data, "log": donor.store.log}, 5)
        replica.truncate_below(replica.applied_upto)
        # Our never-committed command went back to the proposal queue.
        assert [c.command_id for c in replica._queue] == ["mine"]
