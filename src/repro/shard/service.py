"""The shard-aware client service: routing checks and redirects.

:class:`ShardedKVService` is a drop-in :class:`~repro.net.service.KVService`
for nodes that serve one group of a sharded deployment. It adds exactly
two behaviors, both ending in a :class:`~repro.net.wire.WrongShard`
redirect instead of a :class:`~repro.net.wire.ClientReply`:

* **Submit-time routing** — a data command whose key resolves to another
  group under the node's *effective* map (boot map + replicated fences
  and installs) is refused before it touches consensus.
* **Apply-time fencing** — a command that raced into this group's log
  behind a ``shard_prepare`` fence applies as :data:`WRONG_SHARD`
  (refused deterministically on every replica, never logged or marked
  applied); the service translates that marker into the same redirect.
  This second check is the one that makes in-flight pipelined commands
  safe during a rebalance: the submit-time check alone would let a
  command proposed *before* the fence mutate range state *after*
  extraction, silently losing the write.

Control-plane traffic — ``config`` commands, ``noop``, and reserved
``__``-prefixed keys (shard metadata, the catalog's ``__placement__``
key) — is exempt from routing: it addresses the *group*, not a key range.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..net.service import KVService
from ..net.wire import ClientReply, ClientSubmit, WrongShard
from ..smr.kvstore import SHARD_META_PREFIX, WRONG_SHARD, KVCommand
from ..smr.log import SMRReplica
from .placement import PlacementMap, apply_overrides

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..net.node import NodeServer


def _routable(command: KVCommand) -> bool:
    """Data commands on real keys route; control plane is group-local."""
    return (
        command.op in ("get", "put", "cas")
        and bool(command.key)
        and not command.key.startswith("__")
    )


class ShardedKVService(KVService):
    """Serve one group's share of a sharded KV deployment."""

    def __init__(self, group: int, placement: PlacementMap) -> None:
        super().__init__()
        self.group = group
        self.base = placement
        # (shard-meta version, effective map): the fold over the boot map
        # is recomputed only when a config apply bumped the version key.
        self._effective_cache = (None, placement)

    def effective_placement(self, replica: SMRReplica) -> PlacementMap:
        """The boot map with this store's replicated overrides folded in."""
        version = replica.store.data.get(SHARD_META_PREFIX + "version", 0)
        cached_version, cached_map = self._effective_cache
        if cached_version == version:
            return cached_map
        effective = apply_overrides(
            self.base, replica.store.shard_entries(), self.group
        )
        self._effective_cache = (version, effective)
        return effective

    def _redirect(
        self,
        node: "NodeServer",
        request_id: str,
        command: KVCommand,
        reply: Callable[..., None],
    ) -> None:
        replica = node.process
        effective = self.effective_placement(replica)
        node.obs.registry.inc("shard.wrong_shard_redirects")
        reply(
            WrongShard(
                request_id=request_id,
                command_id=command.command_id,
                group=effective.group_for_key(command.key),
                epoch=effective.epoch,
                placement=effective.to_payload(),
            )
        )

    def _propose(
        self,
        node: "NodeServer",
        request: ClientSubmit,
        reply: Callable[..., None],
    ) -> None:
        command = request.command
        if _routable(command):
            effective = self.effective_placement(node.process)
            if effective.group_for_key(command.key) != self.group:
                self._redirect(node, request.request_id, command, reply)
                return
        super()._propose(node, request, self._fence_aware(node, command, reply))

    def _fence_aware(
        self,
        node: "NodeServer",
        command: KVCommand,
        reply: Callable[..., None],
    ) -> Callable[..., None]:
        """Wrap *reply* to turn an apply-time fence refusal into a redirect.

        The marker check is backed by a live ``fence_for`` lookup so a
        stored value that *equals* the marker string can never be
        mistaken for a refusal.
        """

        def wrapped(frame: object) -> None:
            if (
                isinstance(frame, ClientReply)
                and frame.result == WRONG_SHARD
                and not frame.duplicate
                and _routable(command)
                and node.process.store.fence_for(command.key) is not None
            ):
                self._redirect(node, frame.request_id, command, reply)
            else:
                reply(frame)

        return wrapped


__all__ = ["ShardedKVService"]
