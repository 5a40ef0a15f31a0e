"""One body per slot: votes and decisions carry a ``BatchRef``.

The SMR envelope layer replaces a ``CommandBatch`` inside an outgoing
``TwoB``/``Decide`` with a reference whenever the destination holds the
body, and resolves it back before Figure 1 sees the message. These tests
pin what that must never change — decided logs, the message count per
slot, the bare-command wire of ``batch_size=1`` — and what happens when a
reference cannot be resolved.
"""

import os
import subprocess
import sys

from repro.core.values import BOTTOM
from repro.omega import static_omega_factory
from repro.protocols.twostep import Decide, Propose, TwoB
from repro.sim.latency import LatencyModel
from repro.sim.simulation import Simulation
from repro.smr import (
    BatchRef,
    BodyRequest,
    CommandBatch,
    KVCommand,
    Slotted,
    SubmitCommand,
    check_logs_consistent,
    smr_factory,
)

N, F, E = 3, 1, 1


def _factory(batch_size=8):
    return smr_factory(
        F, E, omega_factory=static_omega_factory(0), batch_size=batch_size
    )


def _put(index, key="k"):
    return KVCommand(op="put", key=key, value=index, command_id=f"cmd-{index}")


def _simulation(count=9, batch_size=8, latency=None):
    """Proxy 0 gets *count* puts at t=0: slot 0 holds the first, slot 1
    the other eight as one batch (with ``batch_size=8``)."""
    simulation = Simulation(_factory(batch_size), N, latency=latency)
    for index in range(count):
        simulation.inject(0.0, 0, SubmitCommand(_put(index)))
    return simulation


def _slot_messages(simulation, kind, slot=None):
    return [
        (record.sender, record.receiver, record.message.inner)
        for record in simulation.run_record.sends()
        if isinstance(record.message, Slotted)
        and type(record.message.inner) is kind
        and slot in (None, record.message.slot)
    ]


def _misses(simulation, pid):
    return simulation.obs[pid].registry.snapshot()["counters"].get("smr.body_misses", 0)


class TestDigest:
    def test_same_name_different_members_get_different_references(self):
        # A proxy's batch counter restarts at 0 with the process, so the
        # name alone can denote two batches across a crash.
        before = CommandBatch((_put(0), _put(1)), batch_id="__batch:0:0__")
        after = CommandBatch((_put(2), _put(3)), batch_id="__batch:0:0__")
        assert before.ref.batch_id == after.ref.batch_id
        assert before.ref != after.ref

    def test_reference_covers_the_identity_fields_only(self):
        # (op, key, command_id) is what KVCommand.__hash__ covers; equal
        # ids mean equal commands, so the payload does not enter.
        command = KVCommand(op="put", key="k", value=1, command_id="c")
        same_identity = KVCommand(op="put", key="k", value=2, command_id="c")
        a = CommandBatch((command,), batch_id="b")
        assert a.ref == CommandBatch((same_identity,), batch_id="b").ref
        for other in (
            KVCommand(op="get", key="k", command_id="c"),
            KVCommand(op="put", key="k2", value=1, command_id="c"),
            KVCommand(op="put", key="k", value=1, command_id="c2"),
        ):
            assert a.ref != CommandBatch((other,), batch_id="b").ref
        assert a.ref != CommandBatch((command,), batch_id="b2").ref

    def test_field_boundaries_are_part_of_the_digest(self):
        a = CommandBatch((KVCommand("put", "ab", command_id="c"),), batch_id="b")
        b = CommandBatch((KVCommand("put", "a", command_id="bc"),), batch_id="b")
        assert a.ref != b.ref

    def test_digest_is_the_same_in_another_process(self):
        # hash() of a str differs per process; the digest must not.
        batch = CommandBatch((_put(0), _put(1)), batch_id="__batch:0:0__")
        script = (
            "from repro.smr import CommandBatch, KVCommand\n"
            "cs = tuple(KVCommand('put', 'k', i, command_id=f'cmd-{i}') for i in (0, 1))\n"
            "print(CommandBatch(cs, batch_id='__batch:0:0__').ref.digest)\n"
        )
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            )
            assert int(out.stdout) == batch.ref.digest

    def test_reference_is_computed_once_and_leaves_the_value_alone(self):
        batch = CommandBatch((_put(0),), batch_id="b")
        twin = CommandBatch((_put(0),), batch_id="b")
        assert batch.ref is batch.ref
        assert batch == twin and hash(batch) == hash(twin)
        assert "ref" not in repr(batch)


class TestSteadyPath:
    def test_votes_and_decisions_travel_by_reference(self):
        simulation = _simulation()
        simulation.run(until=60.0)
        replicas = simulation.processes
        assert check_logs_consistent(replicas) == []
        batch = replicas[0].decided[1]
        assert isinstance(batch, CommandBatch) and len(batch.commands) == 8

        def batch_values(kind):
            return [m.value for _s, _d, m in _slot_messages(simulation, kind, slot=1)]

        assert batch_values(Propose) == [batch, batch]
        assert batch_values(TwoB) == [batch.ref, batch.ref]
        assert batch_values(Decide) == [batch.ref, batch.ref]
        assert not _slot_messages(simulation, BodyRequest)
        assert [_misses(simulation, pid) for pid in range(N)] == [0, 0, 0]
        # Every replica ends up holding one object per slot value.
        for replica in replicas:
            assert replica.decided[1] == batch
            inner = replica._slots[1]
            assert inner.decided is replica.decided[1]

    def test_message_count_and_fast_path_are_what_they_were(self):
        simulation = _simulation()
        simulation.run(until=60.0)
        counters = simulation.stats()["merged"]["counters"]
        # Two slots, six messages each: Propose, TwoB, Decide to/from 2 peers.
        for label in ("Propose", "TwoB", "Decide"):
            assert counters[f"sent.Slotted.{label}"] == 4
        assert counters["consensus.decisions_fast"] == 2
        assert counters.get("consensus.decisions_slow", 0) == 0

    def test_table_is_empty_after_a_quiesced_run(self):
        simulation = _simulation(count=40)
        simulation.run(until=200.0)
        for replica in simulation.processes:
            assert len(replica.store.log) == 40
            assert replica._bodies == {}

    def test_bare_commands_are_never_substituted(self):
        simulation = _simulation(count=3, batch_size=1)
        simulation.run(until=60.0)
        assert check_logs_consistent(simulation.processes) == []
        for kind in (Propose, TwoB, Decide):
            values = [m.value for _s, _d, m in _slot_messages(simulation, kind)]
            assert values and all(type(value) is KVCommand for value in values)
        assert all(replica._bodies == {} for replica in simulation.processes)


class _SlowFirstPropose(LatencyModel):
    """0 → 2 takes 10 for anything sent before t=1 (the slot-0 Propose),
    1 for everything else: the Decide overtakes the Propose."""

    def delivery_time(self, sender, receiver, send_time):
        if (sender, receiver) == (0, 2) and send_time < 1.0:
            return send_time + 10.0
        return send_time + 1.0


class TestUnresolvable:
    def test_decide_overtaking_its_propose_is_fetched_once(self):
        simulation = Simulation(_factory(), N, latency=_SlowFirstPropose())
        simulation.inject(0.0, 0, SubmitCommand(_put(0)))
        simulation.run(until=60.0)
        replicas = simulation.processes
        requests = _slot_messages(simulation, BodyRequest)
        batch = replicas[0].decided[0]
        assert isinstance(batch, CommandBatch)
        assert requests == [(2, 0, BodyRequest(batch.ref))]
        # The decider answers with the plain full Decide, to the asker only.
        decides = _slot_messages(simulation, Decide)
        assert (0, 2, Decide(batch)) in decides
        assert (0, 2, Decide(batch.ref)) in decides
        assert (0, 1, Decide(batch)) not in decides
        assert [_misses(simulation, pid) for pid in range(N)] == [0, 0, 1]
        assert check_logs_consistent(replicas) == []
        assert [dict(r.decided) for r in replicas] == [dict(replicas[0].decided)] * N
        assert replicas[2]._slots[0].decided_path == "learned"
        assert all(replica._bodies == {} for replica in replicas)

    def test_unresolvable_vote_is_dropped_and_the_slot_still_decides(self):
        simulation = _simulation(count=1)
        simulation.run(until=0.5)
        proxy = simulation.processes[0]
        assert list(proxy._bodies) == [0]
        proxy._bodies.clear()  # the proposer forgets what it proposed
        simulation.run(until=60.0)
        # Both fast votes named a body the proposer could not find.
        assert _misses(simulation, 0) == 2
        assert not _slot_messages(simulation, BodyRequest)
        counters = simulation.stats()["merged"]["counters"]
        assert counters.get("consensus.decisions_fast", 0) == 0
        assert counters["consensus.decisions_slow"] == 1
        replicas = simulation.processes
        assert check_logs_consistent(replicas) == []
        assert [len(r.store.log) for r in replicas] == [1, 1, 1]

    def test_stale_named_reference_does_not_resolve_to_the_new_body(self):
        simulation = _simulation(count=1)
        simulation.run(until=1.5)  # follower 1 holds the Propose, nothing decided
        follower = simulation.processes[1]
        (held,) = follower._bodies[0].values()
        assert held.body.batch_id == "__batch:0:0__"
        stale = CommandBatch((_put(99),), batch_id="__batch:0:0__")
        assert follower._resolve(0, stale.ref) is None
        assert follower._resolve(0, held.body.ref) is held.body
        simulation.inject(1.6, 1, Slotted(0, Decide(stale.ref)), sender=0)
        simulation.run(until=1.7)
        assert 0 not in follower.decided
        assert _misses(simulation, 1) == 1
        simulation.run(until=60.0)
        # The proposer is asked for a decision it never made and stays
        # silent; the real Decide arrives and every log agrees.
        assert (1, 0, BodyRequest(stale.ref)) in _slot_messages(simulation, BodyRequest)
        assert follower.decided[0] == held.body
        assert check_logs_consistent(simulation.processes) == []

    def test_body_request_for_an_undecided_slot_is_ignored(self):
        simulation = _simulation(count=1)
        simulation.run(until=0.5)
        ref = BatchRef("__batch:0:0__", 7)
        before = len(simulation.run_record.sends())
        simulation.inject(0.6, 0, Slotted(0, BodyRequest(ref)), sender=2)
        simulation.run(until=0.7)
        assert len(simulation.run_record.sends()) == before


class TestTableLifetime:
    def test_late_body_request_is_answered_from_the_decided_log(self):
        simulation = _simulation(count=1)
        simulation.run(until=60.0)
        proxy = simulation.processes[0]
        batch = proxy.decided[0]
        assert proxy._bodies == {}
        simulation.inject(61.0, 0, Slotted(0, BodyRequest(batch.ref)), sender=2)
        simulation.run(until=61.5)
        assert _slot_messages(simulation, Decide)[-1] == (0, 2, Decide(batch))

    def test_restored_slot_resolves_a_returning_vote(self):
        replica = _factory()(0, N)
        batch = CommandBatch((_put(0), _put(1)), batch_id="__batch:0:0__")
        assert replica.restore_slot_state(
            5, bal=0, vbal=0, value=BOTTOM, initial_value=batch
        )
        assert replica._resolve(5, batch.ref) is batch
        assert replica._resolve(4, batch.ref) is None

    def test_truncation_drops_the_table_below_the_frontier(self):
        simulation = _simulation()
        simulation.run(until=2.5)  # slot 0 applied, slot 1 in flight
        proxy = simulation.processes[0]
        assert proxy.applied_upto == 1
        proxy._hold(0, CommandBatch((_put(50),), batch_id="late"))
        assert sorted(proxy._bodies) == [0, 1]
        proxy.truncate_below(proxy.applied_upto)
        assert sorted(proxy._bodies) == [1]
