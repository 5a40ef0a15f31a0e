"""Live range rebalancing: fence, extract, install, publish, release.

A move of hash-slot range ``[lo, hi)`` from its owning *source* group to
a *destination* group is a fixed five-step sequence, every step either
replicated through a group's own consensus or idempotent, so a crashed
coordinator can simply re-run the whole move:

1. **Fence** — a ``shard_prepare`` config command commits in the source
   group's log. From its log position on, every replica refuses data
   commands for the range at *apply* time (:data:`~repro.smr.kvstore.WRONG_SHARD`),
   so commands already in flight behind the fence redirect instead of
   executing — nothing is lost and nothing can double-apply.
2. **Extract** — the range's keys and the applied ids of every logged
   command that touched them are pulled from the node that answered the
   fence (it has provably applied it), over the same chunk stream as
   full state transfer. The fence makes this document final.
3. **Install** — a ``shard_install`` config command carrying the
   document commits in the destination's log: keys become live, carried
   applied ids make post-move client retries come back ``duplicate``.
4. **Publish** — the new map (epoch + 1) is put to the catalog group.
5. **Release** — a ``shard_release`` config command commits in the
   source's log and deletes the moved keys; the fence entry stays as the
   replicated routing override.

Every config command id embeds the new epoch and range
(``__shard:prepare:<epoch>:<lo>-<hi>``), so re-running a move after a
coordinator crash re-submits duplicates that the stores suppress — the
sequence is restartable from any point.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError
from ..net.client import ClientError, KVClient
from ..net.codec import MessageCodec
from ..net.transport import Address
from ..smr.kvstore import KVCommand
from ..storage.recovery import fetch_range_state
from .catalog import CATALOG_GROUP, publish_placement
from .placement import PlacementMap

#: Stage names, in order, passed to a move's ``on_stage`` hook.
MOVE_STAGES = ("prepared", "extracted", "installed", "published", "released")

StageHook = Callable[[str], Any]


@dataclass(frozen=True)
class MoveReport:
    """What one completed range move did."""

    lo: int
    hi: int
    slots: int
    source: int
    dest: int
    epoch: int  #: the map epoch the move established
    keys_moved: int
    applied_ids_carried: int


def _config_command(kind: str, epoch: int, lo: int, hi: int, **extra: Any) -> KVCommand:
    payload: Dict[str, Any] = {"kind": kind, "lo": lo, "hi": hi, "epoch": epoch, **extra}
    short = kind.replace("shard_", "")
    return KVCommand(
        op="config",
        key="",
        value=payload,
        command_id=f"__shard:{short}:{epoch}:{lo}-{hi}",
    )


async def _fire(on_stage: Optional[StageHook], stage: str) -> None:
    if on_stage is None:
        return
    outcome = on_stage(stage)
    if inspect.isawaitable(outcome):
        await outcome


async def _submit_to_group(
    addresses: Sequence[Address],
    command: KVCommand,
    codec: Optional[MessageCodec],
    client_id: str,
    timeout: float,
) -> Tuple[Any, Address]:
    """Commit *command* in a group; returns (reply, answering address).

    Tries each node in turn with a dedicated single-address client, so
    the caller knows exactly which node has *applied* the command (a
    proxy only replies after its own apply — including the ``duplicate``
    path, which checks the local store).
    """
    last_error: Optional[BaseException] = None
    for address in addresses:
        client = KVClient(
            [address], client_id=client_id, codec=codec, timeout=timeout,
            max_attempts=3,
        )
        try:
            reply = await client.submit(command)
            return reply, address
        except ClientError as exc:
            last_error = exc
        finally:
            await client.close()
    raise ClientError(
        f"no node in {list(addresses)!r} committed {command.command_id!r}: "
        f"{last_error!r}"
    )


async def move_range(
    groups: Dict[int, Sequence[Address]],
    placement: PlacementMap,
    lo: int,
    hi: int,
    dest: int,
    codec: Optional[MessageCodec] = None,
    on_stage: Optional[StageHook] = None,
    client_id: str = "rebalance",
    timeout: float = 10.0,
) -> Tuple[MoveReport, PlacementMap]:
    """Run the full move sequence; returns (report, the new map).

    ``on_stage`` (sync or async) fires after each stage in
    :data:`MOVE_STAGES` — crash tests use it to kill nodes at precise
    points of the sequence.
    """
    if dest not in groups:
        raise ConfigurationError(f"unknown destination group {dest}")
    sources = {placement.group_for_slot(slot) for slot in range(lo, hi)}
    if len(sources) != 1:
        raise ConfigurationError(
            f"range [{lo}, {hi}) spans groups {sorted(sources)}; move one "
            f"owner's range at a time"
        )
    source = sources.pop()
    if source == dest:
        raise ConfigurationError(f"range [{lo}, {hi}) already lives in group {dest}")
    new_map = placement.move(lo, hi, dest)
    epoch = new_map.epoch
    slots = placement.slots

    # 1. Fence the range in the source group's log.
    prepare = _config_command(
        "shard_prepare", epoch, lo, hi, slots=slots, dest=dest
    )
    _, fenced_at = await _submit_to_group(
        groups[source], prepare, codec, f"{client_id}-prepare", timeout
    )
    await _fire(on_stage, "prepared")

    # 2. Extract the fenced range from the node that applied the fence.
    resolved_codec = codec if codec is not None else MessageCodec()
    state = await fetch_range_state(
        fenced_at, resolved_codec, lo, hi, slots,
        client_id=f"{client_id}-extract", timeout=timeout,
    )
    if state is None:
        raise ClientError(
            f"node {fenced_at!r} could not serve range [{lo}, {hi})"
        )
    await _fire(on_stage, "extracted")

    # 3. Install keys + applied ids in the destination group's log.
    install = _config_command(
        "shard_install", epoch, lo, hi,
        slots=slots, source=source,
        data=state["data"], applied_ids=list(state["applied_ids"]),
    )
    await _submit_to_group(
        groups[dest], install, codec, f"{client_id}-install", timeout
    )
    await _fire(on_stage, "installed")

    # 4. Publish the new map to the catalog group.
    await publish_placement(
        groups[CATALOG_GROUP], new_map, codec=codec,
        client_id=f"{client_id}-publish", timeout=timeout,
    )
    await _fire(on_stage, "published")

    # 5. Release the moved keys in the source group's log.
    release = _config_command(
        "shard_release", epoch, lo, hi, slots=slots
    )
    await _submit_to_group(
        groups[source], release, codec, f"{client_id}-release", timeout
    )
    await _fire(on_stage, "released")

    report = MoveReport(
        lo=lo, hi=hi, slots=slots, source=source, dest=dest, epoch=epoch,
        keys_moved=len(state["data"]),
        applied_ids_carried=len(state["applied_ids"]),
    )
    return report, new_map


__all__ = ["MOVE_STAGES", "MoveReport", "move_range"]
