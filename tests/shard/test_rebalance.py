"""Rebalancing safety: exactly-once under live moves and any interleaving.

Two layers of evidence, mirroring the repo's live≡sim method:

* a **model** property (hypothesis): the placement/fence/install
  machinery is driven directly on :class:`~repro.smr.kvstore.KVStore`
  instances — the same objects the live replicas apply to — under every
  interleaving of map-epoch bumps (move stages) and in-flight command
  submissions the strategy can draw. Each command must end up applied
  exactly once, in exactly one group's log, in the group that owns its
  key under the final map.
* a **live** test: a real 2×3 :class:`~repro.shard.ShardedCluster` moves
  a range mid-pipelined-load; the same exactly-once obligation is checked
  against the groups' converged applied logs, and the per-group logs pass
  the simulator's own consistency checker (the sharded extension of the
  live≡sim equivalence suite).
"""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.omega import static_omega_factory
from repro.protocols.twostep import TwoStepConfig
from repro.shard import MoveReport, ShardRouter, ShardedCluster
from repro.shard.placement import PlacementMap, apply_overrides
from repro.smr import check_logs_consistent
from repro.smr.kvstore import WRONG_SHARD, KVCommand, KVStore, key_slot
from repro.smr.log import smr_factory

HARD_TIMEOUT = 120.0
SLOTS = 16


# ----------------------------------------------------------------------
# Model: any interleaving of epoch bumps and in-flight commands.
# ----------------------------------------------------------------------


class _ModelGroup:
    """One group's replica state: a real KVStore plus the service-level
    ownership check a live :class:`ShardedKVService` performs at submit
    time (boot map folded with the store's replicated overrides)."""

    def __init__(self, gid: int, boot: PlacementMap) -> None:
        self.gid = gid
        self.boot = boot
        self.store = KVStore()

    def effective(self) -> PlacementMap:
        return apply_overrides(self.boot, self.store.shard_entries(), self.gid)

    def submit(self, command: KVCommand):
        effective = self.effective()
        if effective.group_for_key(command.key) != self.gid:
            return ("redirect", effective)
        result = self.store.apply(command)
        if result == WRONG_SHARD:
            return ("redirect", effective)
        return ("ok", result)


class _ModelClient:
    """A router in miniature: stale map, redirect-driven refresh."""

    def __init__(self, groups, boot: PlacementMap) -> None:
        self.groups = groups
        self.placement = boot
        self.pending = []

    def submit(self, command: KVCommand) -> None:
        self.pending.append(command)
        self.pump()

    def pump(self) -> None:
        still = []
        for command in self.pending:
            target = self.placement.group_for_key(command.key)
            status, info = self.groups[target].submit(command)
            if status == "redirect":
                if info.epoch > self.placement.epoch:
                    self.placement = info
                still.append(command)
        self.pending = still


def _stage_commands(lo, hi, dest, epoch, source_group):
    """The three store-level stages of a move, as closures."""
    prepare = KVCommand(
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

    def fence(groups):
        groups[source_group].store.apply(prepare)

    def install(groups):
        source = groups[source_group].store
        data = {
            key: value
            for key, value in source.data.items()
            if not key.startswith("__") and lo <= key_slot(key, SLOTS) < hi
        }
        carried = [
            c.command_id
            for c in source.log
            if c.key and not c.key.startswith("__")
            and lo <= key_slot(c.key, SLOTS) < hi
        ]
        groups[dest].store.apply(
            KVCommand(
                op="config",
                key="",
                value={
                    "kind": "shard_install",
                    "lo": lo,
                    "hi": hi,
                    "slots": SLOTS,
                    "epoch": epoch,
                    "source": source_group,
                    "data": data,
                    "applied_ids": carried,
                },
                command_id=f"__shard:install:{epoch}:{lo}-{hi}",
            )
        )

    def release(groups):
        groups[source_group].store.apply(
            KVCommand(
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
        )

    return [fence, install, release]


@given(
    lo=st.integers(min_value=0, max_value=7),
    span=st.integers(min_value=1, max_value=8),
    # Which move stage (0..3 = before fence / fenced / installed /
    # released) each of the 14 commands is first submitted in.
    phases=st.lists(
        st.integers(min_value=0, max_value=3), min_size=14, max_size=14
    ),
)
@settings(max_examples=50, deadline=None)
def test_any_interleaving_applies_each_command_exactly_once(lo, span, phases):
    hi = min(lo + span, 8)  # group 0's half of the initial 2-group map
    boot = PlacementMap.initial(2, SLOTS)
    groups = {gid: _ModelGroup(gid, boot) for gid in (0, 1)}
    client = _ModelClient(groups, boot)
    stages = _stage_commands(lo, hi, dest=1, epoch=1, source_group=0)

    commands = [
        KVCommand(op="put", key=f"key-{index}", value=index, command_id=f"m{index}")
        for index in range(len(phases))
    ]
    for stage_index, stage in enumerate(stages, start=1):
        for command, phase in zip(commands, phases):
            if phase == stage_index - 1:
                client.submit(command)
        stage(groups)
        client.pump()
    for command, phase in zip(commands, phases):
        if phase == 3:
            client.submit(command)

    # After the move completes, every pending command must drain within
    # a bounded number of pump rounds (redirects now terminate).
    for _ in range(4):
        if not client.pending:
            break
        client.pump()
    assert client.pending == [], [c.command_id for c in client.pending]

    final = groups[1].effective()
    assert final.epoch == 1
    for command, phase in zip(commands, phases):
        homes = [
            gid
            for gid, group in groups.items()
            if sum(1 for c in group.store.log if c.command_id == command.command_id)
        ]
        counts = sum(
            sum(1 for c in group.store.log if c.command_id == command.command_id)
            for group in groups.values()
        )
        assert counts == 1, f"{command.command_id} applied {counts} times"
        # The legitimate home: whoever owned the key when it applied. A
        # command submitted before the fence (phase 0) applied at the
        # boot owner — its log entry stays there, only its id and effect
        # travel with the install. Anything submitted at or after the
        # fence must have landed with the final owner.
        in_moved_range = lo <= key_slot(command.key, SLOTS) < hi
        if in_moved_range and phase == 0:
            expected_home = boot.group_for_key(command.key)
        else:
            expected_home = final.group_for_key(command.key)
        assert homes == [expected_home], (
            f"{command.command_id} (key {command.key}, phase {phase}) "
            f"landed in {homes}, expected {expected_home}"
        )


# ----------------------------------------------------------------------
# Live: a real range move during pipelined load.
# ----------------------------------------------------------------------


def _factory(delta: float = 0.05):
    return smr_factory(
        1,
        1,
        delta=delta,
        omega_factory=static_omega_factory(0),
        consensus_config=TwoStepConfig(f=1, e=1, delta=delta, is_object=True),
        batch_size=16,
        window=4,
    )


async def _live_move_during_load():
    async with ShardedCluster(
        2, 3, _factory(), slots=SLOTS
    ) as cluster:
        router = ShardRouter(
            cluster.addresses_by_group,
            cluster.placement,
            codec=cluster.codec,
            client_id="rebalance-test",
        )
        try:
            before = [
                KVCommand(op="put", key=f"key-{i}", value=i, command_id=f"a{i}")
                for i in range(30)
            ]
            await router.run_pipelined(before, window=8)

            during = [
                KVCommand(op="put", key=f"key-{i}", value=100 + i, command_id=f"b{i}")
                for i in range(40)
            ]
            load = asyncio.create_task(router.run_pipelined(during, window=8))
            await asyncio.sleep(0.05)
            report = await cluster.move_range(0, 8, dest=1)
            replies = await load

            assert isinstance(report, MoveReport)
            assert (report.lo, report.hi, report.source, report.dest) == (0, 8, 0, 1)
            assert report.epoch == 1
            assert report.keys_moved > 0
            assert report.applied_ids_carried > 0
            assert len(replies) == len(during)

            # Exactly-once across the deployment, including every command
            # that was in flight while the epoch bumped.
            await cluster.wait_groups_converged(timeout=30.0)
            logs = cluster.group_logs()
            all_ids = [cid for log in logs.values() for cid in log]
            expected = {c.command_id for c in before} | {c.command_id for c in during}
            assert len(all_ids) == len(set(all_ids)), "double application"
            assert set(all_ids) == expected

            # The moved range now lives wholly in the destination.
            assert all(
                cluster.placement.group_for_slot(slot) == 1 for slot in range(8)
            )

            # A post-move command for a moved key, submitted through the
            # router's stale boot map, is redirected by the source's fence
            # and teaches the router the new epoch.
            moved_key = next(
                f"key-{i}" for i in range(100) if key_slot(f"key-{i}", SLOTS) < 8
            )
            reply = await router.submit(
                KVCommand(op="get", key=moved_key, command_id="post-move")
            )
            assert not isinstance(reply, Exception)
            assert router.placement.epoch == 1

            # Per-group logs still pass the simulator's own checker: the
            # sharded topology preserves every single-group invariant.
            for group in (0, 1):
                assert check_logs_consistent(cluster.survivor_replicas(group)) == []
        finally:
            await router.close()


def test_live_range_move_during_load_is_exactly_once():
    asyncio.run(asyncio.wait_for(_live_move_during_load(), HARD_TIMEOUT))
