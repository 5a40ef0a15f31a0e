"""In-process cluster harness: every node in one event loop, real TCP.

:class:`LocalCluster` boots *n* :class:`~repro.net.node.NodeServer`\\ s on
ephemeral localhost ports inside the current event loop — the transport is
real asyncio TCP (frames, reconnects, timers on the loop clock), but no
processes are spawned, so tests and CI can run the live stack exactly like
any other test. Binding all servers before launching any node solves the
address-book bootstrap: port 0 sockets are bound first, then every node
learns the full map, then ``on_start`` fires.

Crash injection is crash-stop, matching the model: :meth:`crash` stops a
node's activations, closes its sockets, and cancels its timers; survivors'
reconnect loops keep backing off against the dead address, which is
harmless and realistic.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, List, Optional

from ..core.errors import ConfigurationError
from ..core.process import ProcessFactory, ProcessId
from ..core.values import MaybeValue
from ..smr.log import SMRReplica
from .codec import MessageCodec
from .node import Address, ClientService, KVService, NodeServer


def is_data_command(command) -> bool:
    """Client traffic, as opposed to control-plane log entries: reserved
    ``__`` ids (gap-repair noops, shard config and catalog commands) or
    operations on reserved ``__`` keys (the placement catalog)."""
    return not command.command_id.startswith("__") and not command.key.startswith(
        "__"
    )


class LocalCluster:
    """*n* live nodes sharing one event loop and one codec.

    Parameters
    ----------
    factory:
        The same :class:`~repro.core.process.ProcessFactory` the simulator
        takes — run the identical state machines over real transport.
    client_service_factory:
        Builds one :class:`ClientService` per node; pass
        ``KVService`` (the default when ``serve_clients=True``) for the
        replicated KV store, or ``None`` for bare consensus clusters.
    trace_samples:
        Optional per-node span overrides (pid -> sample or ``None``) on
        top of ``trace_sample`` — how mixed traced/untraced clusters are
        built in tests.
    """

    def __init__(
        self,
        n: int,
        factory: ProcessFactory,
        serve_clients: bool = False,
        client_service_factory: Optional[Callable[[], ClientService]] = None,
        codec: Optional[MessageCodec] = None,
        host: str = "127.0.0.1",
        base_port: int = 0,
        data_dir: Optional[str] = None,
        fsync: bool = True,
        snapshot_every: int = 256,
        outbox_limit: Optional[int] = None,
        trace_sample: Optional[int] = None,
        trace_samples: Optional[Dict[ProcessId, Optional[int]]] = None,
        timeseries_dir: Optional[str] = None,
        timeseries_interval: float = 1.0,
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"need at least one node, got n={n}")
        self.n = n
        self.codec = codec if codec is not None else MessageCodec()
        if client_service_factory is None and serve_clients:
            client_service_factory = KVService
        # Everything restart(pid) needs to rebuild a node in place.
        self._factory = factory
        self._client_service_factory = client_service_factory
        self._host = host
        self._data_dir = data_dir
        self._fsync = fsync
        self._snapshot_every = snapshot_every
        self._outbox_limit = outbox_limit
        self._trace_sample = trace_sample
        self._trace_samples = dict(trace_samples) if trace_samples else None
        self._timeseries_dir = timeseries_dir
        self._timeseries_interval = timeseries_interval
        self.nodes: List[NodeServer] = [
            self._build_node(pid, port=(base_port + pid) if base_port else 0)
            for pid in range(n)
        ]
        # Bound port per pid, recorded at first bind. With base_port=0 the
        # OS assigns ephemeral ports; pinning them here lets a restarted
        # node come back at the *same* address, so survivors' reconnect
        # loops find it without any address-book churn.
        self._ports: List[Optional[int]] = [None] * n
        self._started = False

    def _build_node(self, pid: ProcessId, port: int) -> NodeServer:
        return NodeServer(
            pid,
            self.n,
            self._factory,
            codec=self.codec,
            host=self._host,
            port=port,
            client_service=(
                self._client_service_factory()
                if self._client_service_factory
                else None
            ),
            data_dir=self._data_dir,
            fsync=self._fsync,
            snapshot_every=self._snapshot_every,
            outbox_limit=self._outbox_limit,
            trace_sample=(
                self._trace_samples.get(pid, self._trace_sample)
                if self._trace_samples is not None
                else self._trace_sample
            ),
            timeseries_path=(
                f"{self._timeseries_dir}/node-{pid}.jsonl"
                if self._timeseries_dir
                else None
            ),
            timeseries_interval=self._timeseries_interval,
        )

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    async def start(self) -> "LocalCluster":
        for node in self.nodes:
            await node.bind()
            self._ports[node.pid] = node.port
        addresses = self.addresses
        for node in self.nodes:
            await node.launch(addresses)
        self._started = True
        return self

    async def stop(self) -> None:
        for node in self.nodes:
            if not node.crashed:
                await node.stop()

    async def __aenter__(self) -> "LocalCluster":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    @property
    def addresses(self) -> List[Address]:
        return [node.address for node in self.nodes]

    @property
    def addresses_by_group(self) -> Dict[int, List[Address]]:
        """One cluster is the one-group deployment: ``{0: addresses}``."""
        return {0: self.addresses}

    # ------------------------------------------------------------------
    # Failure injection and survivor introspection.
    # ------------------------------------------------------------------

    async def crash(self, pid: ProcessId) -> None:
        """Crash-stop node *pid* (idempotent)."""
        node = self.nodes[pid]
        if not node.crashed:
            await node.stop()

    async def kill(self, pid: ProcessId) -> None:
        """SIGKILL-style crash: like :meth:`crash`, but any WAL records
        buffered since the last group commit are dropped, not flushed —
        recovery must cope with the resulting torn/missing tail."""
        node = self.nodes[pid]
        if not node.crashed:
            await node.stop(hard=True)

    async def restart(self, pid: ProcessId) -> NodeServer:
        """Bring a crashed node back at its recorded port, recovered.

        Builds a fresh :class:`NodeServer` (fresh process instance, fresh
        metrics), rebinds the port pinned at first bind, recovers from
        the shared data directory during launch, and swaps it into
        ``self.nodes`` so survivor/convergence helpers see it again.
        Survivors' sender tasks reconnect on their own (same address) and
        re-send any retained outbound backlog; the catch-up task pulls a
        peer snapshot for everything older than that.
        """
        node = self.nodes[pid]
        if not node.crashed:
            raise ConfigurationError(f"node {pid} is alive; crash it before restart")
        port = self._ports[pid]
        if port is None:
            raise ConfigurationError(f"node {pid} was never bound; cannot restart")
        replacement = self._build_node(pid, port=port)
        self.nodes[pid] = replacement
        await replacement.bind()
        await replacement.launch(self.addresses)
        return replacement

    @property
    def survivors(self) -> List[NodeServer]:
        return [node for node in self.nodes if not node.crashed]

    def survivor_replicas(self) -> List[SMRReplica]:
        replicas = []
        for node in self.survivors:
            if not isinstance(node.process, SMRReplica):
                raise ConfigurationError(
                    "survivor_replicas() needs SMRReplica processes, got "
                    f"{type(node.process).__name__}"
                )
            replicas.append(node.process)
        return replicas

    # ------------------------------------------------------------------
    # Convergence waits (all bounded; raise asyncio.TimeoutError).
    # ------------------------------------------------------------------

    async def wait_all_decided(
        self, timeout: float
    ) -> Dict[ProcessId, MaybeValue]:
        """Wait until every surviving node's process decided; return values."""

        async def _all() -> Dict[ProcessId, MaybeValue]:
            while True:
                undecided = [n for n in self.survivors if n.decision is None]
                if not undecided:
                    return {n.pid: n.decision for n in self.survivors}
                await asyncio.sleep(0.005)

        return await asyncio.wait_for(_all(), timeout)

    async def wait_logs_converged(
        self,
        timeout: float,
        expected_commands: Optional[int] = None,
        poll: float = 0.02,
    ) -> List[str]:
        """Wait until every survivor applied the identical command log.

        Convergence means: all survivors' applied command-id sequences are
        equal, and (when given) the shared log contains at least
        ``expected_commands`` data commands (:func:`is_data_command`).
        Returns the shared sequence, control-plane entries included.
        """

        async def _converged() -> List[str]:
            while True:
                replicas = self.survivor_replicas()
                logs = [
                    [command.command_id for command in replica.store.log]
                    for replica in replicas
                ]
                if logs and all(log == logs[0] for log in logs):
                    data = sum(map(is_data_command, replicas[0].store.log))
                    if expected_commands is None or data >= expected_commands:
                        return logs[0]
                await asyncio.sleep(poll)

        return await asyncio.wait_for(_converged(), timeout)

