"""Shard-aware request routing: per-group clients, redirect retry.

:class:`ShardRouter` is the client-side half of the sharding contract.
It holds one lazily-dialed :class:`~repro.net.client.KVClient` per
consensus group and a current :class:`~repro.shard.placement.PlacementMap`;
every data command resolves to a group through the map, and a
:class:`~repro.net.wire.WrongShard` redirect teaches the router two
things at once — where *this* command should go (``redirect.group``) and,
when the carried map is newer, where every *future* command should go
(the map is installed wholesale).

During a live rebalance a command can briefly bounce: the source group
fenced the range but the destination has not applied its install yet, so
the destination redirects straight back. The bounded redirect budget
plus a small inter-round backoff rides that window out — once the
install commits, the destination accepts and the command completes
exactly once (idempotence-by-id makes the intermediate re-submissions
free).
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, List, Optional, Sequence

from ..net.client import ClientError, KVClient, PipelineError, parse_address_list
from ..net.codec import MessageCodec
from ..net.node import Address
from ..net.wire import ClientReply, WrongShard
from ..smr.kvstore import KVCommand
from .placement import PlacementMap

#: Redirect rounds a run follows before giving up on what is left.
MAX_REDIRECTS = 16


class ShardRouter:
    """Route commands across the groups of a sharded deployment."""

    def __init__(
        self,
        groups: Dict[int, Sequence[Address]],
        placement: PlacementMap,
        codec: Optional[MessageCodec] = None,
        client_id: str = "router",
        timeout: float = 5.0,
        max_attempts: int = 8,
        redirect_backoff: float = 0.05,
    ) -> None:
        if not groups:
            raise ClientError("router needs at least one group")
        self.groups = {group: list(addresses) for group, addresses in groups.items()}
        self.placement = placement
        self.codec = codec if codec is not None else MessageCodec()
        self.client_id = client_id
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.max_redirects = MAX_REDIRECTS
        self.redirect_backoff = redirect_backoff
        self._clients: Dict[int, KVClient] = {}
        #: total WrongShard redirects observed (all commands, all rounds)
        self.redirect_count = 0
        #: completed commands per group, for the loadgen record
        self.group_commands: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Group connections.
    # ------------------------------------------------------------------

    def client_for(self, group: int) -> KVClient:
        if group not in self.groups:
            raise ClientError(f"no addresses for group {group}")
        if group not in self._clients:
            self._clients[group] = KVClient(
                self.groups[group],
                client_id=f"{self.client_id}-g{group}",
                codec=self.codec,
                timeout=self.timeout,
                max_attempts=self.max_attempts,
            )
        return self._clients[group]

    async def close(self) -> None:
        for client in self._clients.values():
            await client.close()

    # ------------------------------------------------------------------
    # Placement resolution.
    # ------------------------------------------------------------------

    def group_for(self, command: KVCommand) -> int:
        """The group *command* routes to under the current map.

        Control-plane commands (``config``, ``noop``, reserved ``__``
        keys) have no home range: callers submit those through the
        group's :class:`~repro.net.client.KVClient`, as
        :mod:`~repro.shard.catalog` and :mod:`~repro.shard.rebalance` do.
        """
        if (
            command.op not in ("get", "put", "cas")
            or not command.key
            or command.key.startswith("__")
        ):
            raise ClientError(
                f"command {command.command_id!r} is control-plane; "
                f"submit it through its group's KVClient"
            )
        return self.placement.group_for_key(command.key)

    def _observe_redirect(self, redirect: WrongShard) -> None:
        self.redirect_count += 1
        if redirect.placement and redirect.epoch > self.placement.epoch:
            self.placement = PlacementMap.from_payload(redirect.placement)

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------

    async def submit(
        self,
        command: KVCommand,
        trace_id: Optional[str] = None,
        proxy: Optional[int] = None,
    ) -> ClientReply:
        """Submit one data command with a window of one.

        It runs on its group's :meth:`KVClient.run_pipelined`, so a closed
        loop skips this router's per-round partition and ``gather``; only
        a redirect sends it on through :meth:`run_pipelined`, which owns
        redirect handling. ``proxy`` is the preferred proxy within the
        group; :meth:`group_for` refuses control plane first.
        """
        group = self.group_for(command)
        client = self.client_for(group)
        traces = {command.command_id: trace_id} if trace_id else None
        run = dict(window=1, proxy=proxy, traces=traces)
        replies = await client.run_pipelined([command], **run)
        if command.command_id in replies:
            self.group_commands[group] = self.group_commands.get(group, 0) + 1
            return replies[command.command_id]
        self._observe_redirect(client.redirects[command.command_id])
        return (await self.run_pipelined([command], **run))[command.command_id]

    async def run_pipelined(
        self,
        commands: Sequence[KVCommand],
        window: int = 16,
        proxy: Optional[int] = None,
        on_reply: Optional[Callable[[ClientReply, float], None]] = None,
        traces: Optional[Dict[str, str]] = None,
    ) -> Dict[str, ClientReply]:
        """Drive *commands* pipelined across all groups concurrently.

        Commands are partitioned by the current map, each partition runs
        through its group's client with up to *window* outstanding (on
        *proxy*, when given, reduced modulo the group's size), and
        redirected commands re-partition for the next round (with any
        newer map from the redirects installed first). Returns replies
        keyed by ``command_id``; raises :class:`PipelineError` (caused
        by the last client failure) if work remains after the redirect
        budget, or after a round that completed nothing and saw no
        redirect — every client there already spent its attempt budget,
        so another round would only spend it again.
        """
        remaining: Dict[str, KVCommand] = {}
        for command in commands:
            if not command.command_id:
                raise ClientError("pipelined commands need a unique command_id")
            remaining[command.command_id] = command
        replies: Dict[str, ClientReply] = {}
        overrides: Dict[str, int] = {}  # command_id -> group a redirect named
        last_error: Optional[BaseException] = None
        if not remaining:
            return replies
        for round_index in range(self.max_redirects + 1):
            if round_index:
                await asyncio.sleep(
                    min(self.redirect_backoff * round_index, 0.5)
                )
            buckets: Dict[int, List[KVCommand]] = {}
            for command_id, command in remaining.items():
                target = overrides.get(
                    command_id, self.placement.group_for_key(command.key)
                )
                if target not in self.groups:
                    target = self.placement.group_for_key(command.key)
                buckets.setdefault(target, []).append(command)
            ordered = sorted(buckets.items())
            outcomes = await asyncio.gather(
                *(
                    self.client_for(group).run_pipelined(
                        batch,
                        window=window,
                        proxy=proxy,
                        on_reply=on_reply,
                        traces=traces,
                    )
                    for group, batch in ordered
                ),
                return_exceptions=True,
            )
            overrides = {}
            progressed = False
            for (group, _batch), outcome in zip(ordered, outcomes):
                if isinstance(outcome, PipelineError):
                    last_error = outcome
                    done: Dict[str, ClientReply] = outcome.replies
                elif isinstance(outcome, BaseException):
                    raise outcome
                else:
                    done = outcome
                for command_id, reply in done.items():
                    if remaining.pop(command_id, None) is not None:
                        progressed = True
                        replies[command_id] = reply
                        self.group_commands[group] = (
                            self.group_commands.get(group, 0) + 1
                        )
                for command_id, redirect in self._clients[group].redirects.items():
                    self._observe_redirect(redirect)
                    progressed = True
                    if redirect.group in self.groups:
                        overrides[command_id] = redirect.group
            if not remaining:
                return replies
            if not progressed:
                break
        raise PipelineError(
            f"{len(remaining)} of {len(remaining) + len(replies)} sharded "
            f"commands incomplete after {round_index + 1} round(s): {last_error!r}",
            replies=replies,
            pending=sorted(remaining),
        ) from last_error


def parse_group_addresses(text: str) -> Dict[int, List[Address]]:
    """Parse the CLI's sharded peers format.

    ``host:port,host:port;host:port,...`` — groups separated by ``;`` in
    group-id order (group 0 first), nodes within a group by ``,``.
    """
    groups: Dict[int, List[Address]] = {}
    for index, chunk in enumerate(part for part in text.split(";") if part.strip()):
        groups[index] = parse_address_list(chunk)
    if not groups:
        raise ClientError(f"no group addresses in {text!r}")
    return groups


__all__ = ["ShardRouter", "parse_group_addresses"]
