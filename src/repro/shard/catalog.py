"""The placement catalog: the map's authoritative, replicated home.

The catalog is not a separate service — it is a reserved key
(:data:`CATALOG_KEY`) in the *catalog group*'s replicated KV store
(group 0 by convention). Publishing a map is an ordinary ``put`` driven
through the group's own consensus, so map changes inherit every property
the data path already has: total order across concurrent publishers,
durability via the WAL, snapshot carriage, and crash recovery. A client
(or a freshly started router) bootstraps by ``get``-ing the key from any
catalog-group node.

The ``__placement__`` key is ``__``-prefixed, so shard routing exempts
it: catalog reads and writes always address the catalog group directly
and are never themselves redirected.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..net.client import KVClient
from ..net.codec import MessageCodec
from ..net.transport import Address
from ..smr.kvstore import KVCommand
from .placement import PlacementMap

#: The reserved store key holding the current placement payload.
CATALOG_KEY = "__placement__"

#: The group whose replicated log is the map's authority.
CATALOG_GROUP = 0


def publish_command(placement: PlacementMap) -> KVCommand:
    """The ``put`` that publishes *placement*.

    The command id embeds the epoch, so re-publishing the same epoch
    (a rebalance retried after a coordinator crash) is suppressed as a
    duplicate instead of appending a second, identical log entry.
    """
    return KVCommand(
        op="put",
        key=CATALOG_KEY,
        value=placement.to_payload(),
        command_id=f"__shard:catalog:{placement.epoch}",
    )


async def publish_placement(
    addresses: Sequence[Address],
    placement: PlacementMap,
    codec: Optional[MessageCodec] = None,
    client_id: str = "catalog-publish",
    timeout: float = 5.0,
) -> None:
    """Replicate *placement* into the catalog group's log."""
    client = KVClient(
        addresses, client_id=client_id, codec=codec, timeout=timeout
    )
    try:
        await client.submit(publish_command(placement))
    finally:
        await client.close()


async def fetch_placement(
    addresses: Sequence[Address],
    codec: Optional[MessageCodec] = None,
    client_id: str = "catalog-fetch",
    timeout: float = 5.0,
) -> Optional[PlacementMap]:
    """Read the current map from the catalog group; ``None`` if unset."""
    client = KVClient(
        addresses, client_id=client_id, codec=codec, timeout=timeout
    )
    try:
        reply = await client.get(CATALOG_KEY)
    finally:
        await client.close()
    payload = getattr(reply, "result", None)
    if not payload:
        return None
    return PlacementMap.from_payload(payload)


__all__ = [
    "CATALOG_GROUP",
    "CATALOG_KEY",
    "fetch_placement",
    "publish_command",
    "publish_placement",
]
