"""The persisted projection of a Figure 1 process: what a restarted node gets back.

:func:`repro.protocols.twostep.persisted_slot_state` is the one list of
the fields the SMR layer journals per open slot. These tests pin that
every field of a :class:`TwoStepProcess` is either in it or named below
as deliberately left out, that its inverse restores each field onto a
fresh instance, and that the WAL record carries it field for field.
"""

import random

from repro.core.values import BOTTOM, is_bottom
from repro.omega import StaticOmega
from repro.protocols.twostep import (
    BALLOT_TIMER,
    ProposeRequest,
    TwoStepConfig,
    TwoStepProcess,
    persisted_slot_state,
    restore_persisted_slot_state,
    twostep_object_factory,
)
from repro.sim import Arena
from repro.smr.kvstore import CommandBatch, KVCommand
from repro.storage.records import WalSlotState

N, F, E = 3, 1, 1

#: Every field of a fresh process the projection leaves out, and why.
#: A field added to TwoStepProcess fails the coverage test until it is
#: put in the projection or in this table.
NOT_PERSISTED = {
    "pid": "constructor argument",
    "n": "constructor argument",
    "config": "constructor argument",
    "omega": "constructor argument (a replica's slots share its Ω)",
    "proposer": "open: a restarted voter reports proposer ⊥ in its 1B (ROADMAP 2c)",
    "decided": "a decided slot is journaled as its decision, WalDecision",
    "decided_path": "observability only, never read by the protocol",
    "decided_ballot": "observability only, never read by the protocol",
    "_fast_votes": "fast vote tally: re-delivered 2Bs rebuild it",
    "_slow_votes": "slow vote tally: re-delivered 2Bs rebuild it",
    "_oneb_reports": "1B reports: the coordinator's next ballot solicits them again",
}


def _fresh(pid=0):
    return TwoStepProcess(pid, N, TwoStepConfig(f=F, e=E, is_object=True))


def _changed(value):
    """A value unequal to *value*, of a shape the field can hold."""
    if isinstance(value, int):
        return value + 1
    if is_bottom(value) or value is None:
        return 7
    if isinstance(value, set):
        return value | {4}
    if isinstance(value, dict):
        return {**value, 4: set()}
    return object()


class TestFieldCoverage:
    def test_every_field_is_persisted_or_left_out_for_a_reason(self):
        before = persisted_slot_state(_fresh())
        persisted, left_out = set(), set()
        for name, value in vars(_fresh()).items():
            twin = _fresh()
            setattr(twin, name, _changed(value))
            moved = persisted_slot_state(twin) != before
            (persisted if moved else left_out).add(name)
        assert left_out == set(NOT_PERSISTED)
        assert persisted == {"bal", "vbal", "val", "initial_val", "_sent_twoa"}

    def test_the_inverse_restores_each_persisted_field(self):
        for name, value in vars(_fresh()).items():
            if name in NOT_PERSISTED:
                continue
            source = _fresh()
            setattr(source, name, _changed(value))
            restored = _fresh()
            restore_persisted_slot_state(restored, persisted_slot_state(source))
            assert getattr(restored, name) == getattr(source, name), name

    def test_the_wal_record_carries_the_projection_field_for_field(self):
        batch = CommandBatch(
            (KVCommand("put", "k", "v", command_id="c"),), batch_id="b"
        )
        process = _fresh()
        restore_persisted_slot_state(process, (5, 3, batch, BOTTOM, (2, 5)))
        state = persisted_slot_state(process)
        assert WalSlotState(9, *state).state == state
        assert WalSlotState(9, *state) == WalSlotState(
            slot=9, bal=5, vbal=3, value=batch, initial_value=BOTTOM, sent_twoa=(2, 5)
        )


def _reached_processes(seeds, steps=80):
    """Every process after every step of one seeded random schedule per
    seed: proposals injected, messages delivered in random order, and
    ballot timers fired at random by processes that each trust themselves
    as leader, so ballots open, 2As go out and votes move past ballot 0."""
    factory = twostep_object_factory(F, E, omega_factory=lambda pid, n: StaticOmega(pid))
    for seed in seeds:
        rng = random.Random(seed)
        arena = Arena(factory, N)
        arena.start_all()
        for pid in range(N):
            if rng.random() < 0.8:
                arena.inject(pid, ProposeRequest(10 * seed + pid))
        for _ in range(steps):
            pending = arena.pending_list()
            timers = arena.armed_timers()
            if timers and (not pending or rng.random() < 0.15):
                pid, name = rng.choice(timers)
                assert name == BALLOT_TIMER
                arena.fire_timer(pid, name)
            elif pending:
                arena.deliver(rng.choice(pending))
            else:
                break
            yield from arena.processes


class TestRoundTrip:
    def test_a_fresh_process_restored_from_the_projection_gives_it_back(self):
        reached = []
        for process in _reached_processes(range(40)):
            state = persisted_slot_state(process)
            fresh = TwoStepProcess(process.pid, N, process.config, omega=process.omega)
            restore_persisted_slot_state(fresh, state)
            assert persisted_slot_state(fresh) == state
            reached.append(state)
        # The schedules moved every persisted field off its start value,
        # so an inverse that dropped any of them would fail above.
        bal, vbal, val, initial_val, sent_twoa = zip(*reached)
        assert max(bal) > 0 and max(vbal) > 0
        assert any(not is_bottom(value) for value in val)
        assert any(not is_bottom(value) for value in initial_val)
        assert any(sent_twoa)
