"""The sharded deployment harness: G consensus groups in one event loop.

:class:`ShardedCluster` composes G independent
:class:`~repro.net.cluster.LocalCluster`\\ s — one per consensus group,
each running the unmodified two-step protocol over its own R replicas,
its own ports, and (when durability is on) its own per-group data
directory. Group 0 doubles as the catalog group: its replicated KV log
is the placement map's authority (see :mod:`repro.shard.catalog`), and
:meth:`start` seeds it with the boot map.

Each node's client service is a :class:`~repro.shard.service.ShardedKVService`
constructed with its group id and the *boot* map. The boot map is
deliberately allowed to go stale: every later change reaches the stores
as replicated fences and installs, and the service folds those over the
boot map on demand — so a restarted node recovers its routing view from
its own WAL, with no side channel.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, List, Optional, Tuple

from ..core.errors import ConfigurationError
from ..core.process import ProcessFactory, ProcessId
from ..net.cluster import LocalCluster
from ..net.codec import MessageCodec
from ..net.node import Address, NodeServer
from ..smr.log import SMRReplica
from .catalog import CATALOG_GROUP, publish_placement
from .placement import DEFAULT_SLOTS, PlacementMap
from .rebalance import MoveReport, StageHook, move_range
from .service import ShardedKVService


def _is_data_command(command) -> bool:
    """Routed client traffic, as opposed to control-plane log entries
    (reserved ``__`` ids or operations on reserved ``__`` keys)."""
    return not command.command_id.startswith("__") and not command.key.startswith(
        "__"
    )


class ShardedCluster:
    """G groups × R replicas of the live stack, shard-routed."""

    def __init__(
        self,
        groups: int,
        replicas_per_group: int,
        factory: ProcessFactory,
        codec: Optional[MessageCodec] = None,
        slots: int = DEFAULT_SLOTS,
        host: str = "127.0.0.1",
        data_dir: Optional[str] = None,
        fsync: bool = True,
        snapshot_every: int = 256,
    ) -> None:
        if groups < 1:
            raise ConfigurationError(f"need at least one group, got {groups}")
        self.group_count = groups
        self.placement = PlacementMap.initial(groups, slots)
        self.codec = codec if codec is not None else MessageCodec()
        self.clusters: Dict[int, LocalCluster] = {}
        for group in range(groups):
            self.clusters[group] = LocalCluster(
                replicas_per_group,
                factory,
                client_service_factory=self._service_factory(group),
                codec=self.codec,
                host=host,
                data_dir=f"{data_dir}/group-{group}" if data_dir else None,
                fsync=fsync,
                snapshot_every=snapshot_every,
            )

    def _service_factory(self, group: int) -> Callable[[], ShardedKVService]:
        boot_map = self.placement
        return lambda: ShardedKVService(group, boot_map)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    async def start(self) -> "ShardedCluster":
        for cluster in self.clusters.values():
            await cluster.start()
        # Seed the catalog. The publish's command id embeds the epoch, so
        # re-seeding an already-recovered catalog is a suppressed duplicate.
        await publish_placement(
            self.clusters[CATALOG_GROUP].addresses,
            self.placement,
            codec=self.codec,
            client_id="sharded-seed",
        )
        return self

    async def stop(self) -> None:
        for cluster in self.clusters.values():
            await cluster.stop()

    async def __aenter__(self) -> "ShardedCluster":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Topology.
    # ------------------------------------------------------------------

    @property
    def addresses_by_group(self) -> Dict[int, List[Address]]:
        return {group: cluster.addresses for group, cluster in self.clusters.items()}

    def node(self, group: int, pid: ProcessId) -> NodeServer:
        return self.clusters[group].nodes[pid]

    # ------------------------------------------------------------------
    # Failure injection (delegates to the group's LocalCluster).
    # ------------------------------------------------------------------

    async def crash(self, group: int, pid: ProcessId) -> None:
        await self.clusters[group].crash(pid)

    async def kill(self, group: int, pid: ProcessId) -> None:
        await self.clusters[group].kill(pid)

    async def restart(self, group: int, pid: ProcessId) -> NodeServer:
        return await self.clusters[group].restart(pid)

    # ------------------------------------------------------------------
    # Convergence and the exactly-once witness.
    # ------------------------------------------------------------------

    async def wait_groups_converged(
        self,
        timeout: float,
        expected_commands: Optional[Dict[int, int]] = None,
    ) -> Dict[int, List[str]]:
        """Wait until every group's survivors applied identical logs.

        ``expected_commands`` optionally gives a per-group floor of
        non-reserved commands (ids not starting ``__``). Returns each
        group's shared applied-id sequence.
        """

        async def _one(group: int, cluster: LocalCluster) -> Tuple[int, List[str]]:
            async def _converged() -> List[str]:
                floor = (expected_commands or {}).get(group)
                while True:
                    replicas = cluster.survivor_replicas()
                    logs = [
                        [c.command_id for c in replica.store.log]
                        for replica in replicas
                    ]
                    if logs and all(log == logs[0] for log in logs):
                        data = [
                            c.command_id
                            for c in replicas[0].store.log
                            if _is_data_command(c)
                        ]
                        if floor is None or len(data) >= floor:
                            return logs[0]
                    await asyncio.sleep(0.02)

            return group, await asyncio.wait_for(_converged(), timeout)

        results = await asyncio.gather(
            *(_one(group, cluster) for group, cluster in self.clusters.items())
        )
        return dict(results)

    def group_logs(self) -> Dict[int, List[str]]:
        """Each group's applied *data* command ids (one survivor's view).

        Control-plane traffic is filtered: reserved ids (``__noop``
        fillers, ``__shard:`` config and catalog commands) and operations
        on reserved ``__``-prefixed keys (catalog fetches carry ordinary
        client ids but are addressed to a group directly, not routed by
        key). Neither is part of the exactly-once obligation.
        """
        logs: Dict[int, List[str]] = {}
        for group, cluster in self.clusters.items():
            replicas = cluster.survivor_replicas()
            if not replicas:
                raise ConfigurationError(f"group {group} has no survivors")
            logs[group] = [
                command.command_id
                for command in replicas[0].store.log
                if _is_data_command(command)
            ]
        return logs

    def survivor_replicas(self, group: int) -> List[SMRReplica]:
        return self.clusters[group].survivor_replicas()

    # ------------------------------------------------------------------
    # Rebalancing.
    # ------------------------------------------------------------------

    async def move_range(
        self,
        lo: int,
        hi: int,
        dest: int,
        on_stage: Optional[StageHook] = None,
        timeout: float = 10.0,
    ) -> MoveReport:
        """Move slots ``[lo, hi)`` to group *dest*; updates the map."""
        report, new_map = await move_range(
            self.addresses_by_group,
            self.placement,
            lo,
            hi,
            dest,
            codec=self.codec,
            on_stage=on_stage,
            timeout=timeout,
        )
        self.placement = new_map
        return report


__all__ = ["ShardedCluster"]
