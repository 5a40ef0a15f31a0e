"""The sharded deployment harness: G consensus groups in one event loop.

:class:`ShardedCluster` composes G independent
:class:`~repro.net.cluster.LocalCluster`\\ s — one per consensus group,
each running the unmodified two-step protocol over its own R replicas,
its own ports, and its own per-group WAL and time-series directories
(when those are on). Group 0 doubles as the catalog group: its
replicated KV log is the placement map's authority (see
:mod:`repro.shard.catalog`), and :meth:`start` seeds it with the boot
map.

Each node's client service is a :class:`~repro.shard.service.ShardedKVService`
constructed with its group id and the *boot* map. The boot map is
deliberately allowed to go stale: every later change reaches the stores
as replicated fences and installs, and the service folds those over the
boot map on demand — so a restarted node recovers its routing view from
its own WAL, with no side channel.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, List, Optional

from ..core.errors import ConfigurationError
from ..core.process import ProcessFactory, ProcessId
from ..net.cluster import LocalCluster, is_data_command
from ..net.codec import MessageCodec
from ..net.node import Address, NodeServer
from ..smr.log import SMRReplica
from .catalog import CATALOG_GROUP, publish_placement
from .placement import DEFAULT_SLOTS, PlacementMap
from .rebalance import MoveReport, StageHook, move_range
from .service import ShardedKVService


class ShardedCluster:
    """G groups × R replicas of the live stack, shard-routed.

    Node options mean what they mean for :class:`LocalCluster`, laid out
    per group: group g's node i listens on ``base_port + g*R + i``
    (ephemeral when 0) and writes under ``data_dir/group-<g>/`` and
    ``timeseries_dir/group-<g>/``.
    """

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
        base_port: int = 0,
        trace_sample: Optional[int] = None,
        timeseries_dir: Optional[str] = None,
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
                base_port=base_port + group * replicas_per_group if base_port else 0,
                data_dir=f"{data_dir}/group-{group}" if data_dir else None,
                fsync=fsync,
                snapshot_every=snapshot_every,
                trace_sample=trace_sample,
                timeseries_dir=(
                    f"{timeseries_dir}/group-{group}" if timeseries_dir else None
                ),
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

        ``expected_commands`` optionally gives a per-group floor of data
        commands (:func:`~repro.net.cluster.is_data_command`). Returns
        each group's shared applied-id sequence.
        """
        floors = expected_commands or {}
        logs = await asyncio.gather(
            *(
                cluster.wait_logs_converged(timeout, floors.get(group))
                for group, cluster in self.clusters.items()
            )
        )
        return dict(zip(self.clusters, logs))

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
                if is_data_command(command)
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
