"""The replicated key-value state machine and its command language.

Commands are totally ordered (required by Figure 1's value-ordered fast
path: a ``Propose`` is only accepted when its value is ``>=`` the
receiver's own proposal), deterministic, and idempotent-by-id: the SMR
layer suppresses duplicate application when a command wins several slots
(which can happen when a proxy re-proposes after losing a slot race).
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple, Union

#: Reserved key prefix for replicated shard metadata (placement fences and
#: installed ranges). Keys under this prefix — and the catalog's
#: ``__placement__`` key — are *control-plane* state: they live in the
#: store like any other key (so snapshots, WAL replay, and state transfer
#: carry them for free) but are never subject to shard routing.
SHARD_META_PREFIX = "__shard__/"

#: Marker result for a data command that hit an epoch fence at apply
#: time: the key's range was handed to another group by a ``config``
#: command earlier in this log, so the command must NOT execute here.
#: The serving layer turns this into a ``WrongShard`` redirect.
WRONG_SHARD = "__wrong_shard__"


def key_slot(key: str, slots: int) -> int:
    """Deterministic key → hash-slot mapping for placement.

    CRC32 rather than ``hash()``: per-process seed randomization would
    make replicas disagree about placement, which is a safety bug.
    """
    return zlib.crc32(key.encode("utf-8")) % slots


@dataclass(frozen=True)
class KVCommand:
    """One key-value operation: ``get``, ``put``, ``cas`` — or ``config``.

    ``config`` commands are the shard-management vocabulary: their
    ``value`` is a JSON-safe payload (``{"kind": "shard_prepare" |
    "shard_install" | "shard_release", ...}``) applied by
    :meth:`KVStore.apply` like any other deterministic operation, so
    fences and range installs are replicated, recover from the WAL, and
    ride snapshots without any side channel.
    """

    op: str
    key: str
    value: Any = None
    expected: Any = None  # for cas
    command_id: str = ""

    def __post_init__(self) -> None:
        if self.op not in ("get", "put", "cas", "noop", "config"):
            raise ValueError(f"unknown op {self.op!r}")

    # The consensus layer buckets fast-path votes by proposal value, so
    # commands must hash even when ``value`` is an unhashable payload
    # (``config`` commands carry dicts). Identity fields suffice:
    # command ids are unique per submission, so equal commands share
    # ids and the hash/eq contract holds.
    def __hash__(self) -> int:
        return hash((self.op, self.key, self.command_id))

    # Total order: the fast path compares proposals. Any deterministic
    # total order works; ties on the sort key cannot happen across
    # distinct commands because command_id is unique per submission.
    def sort_key(self) -> Tuple[str, str, str, str]:
        return (self.op, self.key, repr(self.value), self.command_id)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, KVCommand):
            return NotImplemented  # lets BOTTOM's reflected comparison apply
        return self.sort_key() < other.sort_key()

    def __le__(self, other: object) -> bool:
        if not isinstance(other, KVCommand):
            return NotImplemented
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: object) -> bool:
        if not isinstance(other, KVCommand):
            return NotImplemented
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: object) -> bool:
        if not isinstance(other, KVCommand):
            return NotImplemented
        return self.sort_key() >= other.sort_key()


#: Slot filler decided when a proxy must flush a slot without a command.
NOOP_COMMAND = KVCommand(op="noop", key="", command_id="__noop__")


@dataclass(frozen=True)
class BatchRef:
    """Names a :class:`CommandBatch` without carrying it.

    The SMR layer sends this in place of a batch body to a node that
    already holds the body (see :mod:`repro.smr.log`). ``batch_id`` alone
    is not an identity — a proxy's batch counter restarts at 0 with the
    process, so ``__batch:0:0__`` can name two different batches across a
    crash — hence the content ``digest``.
    """

    batch_id: str
    digest: int


@dataclass(frozen=True)
class CommandBatch:
    """Many client commands riding one consensus slot.

    Batching lives strictly *above* the per-slot protocol: a batch is just
    a proposal value, so Figure 1 runs unchanged — it needs values to be
    totally ordered and hashable, which the batch provides by delegating
    to its members' :meth:`KVCommand.sort_key`. Members apply in batch
    order, and the store's idempotence-by-id still suppresses a command
    that rides two batches (a proxy re-batches after losing a slot race).

    ``batch_id`` gives the batch the same ``command_id``-shaped identity a
    bare command has, so slot-level bookkeeping (the log consistency
    checker, noop filtering) works on mixed logs. Ties on the comparison
    key cannot happen across distinct batches because member command ids
    are unique per submission.
    """

    commands: Tuple[KVCommand, ...]
    batch_id: str = ""

    def __post_init__(self) -> None:
        if not self.commands:
            raise ValueError("a CommandBatch needs at least one command")

    @property
    def command_id(self) -> str:
        return self.batch_id

    @cached_property
    def ref(self) -> BatchRef:
        """This batch's :class:`BatchRef`, computed once per object.

        The digest covers ``batch_id`` and each member's ``(op, key,
        command_id)`` — the identity fields of :meth:`KVCommand.__hash__`
        — through blake2b, never ``hash()``: every replica, in every
        process, must derive the same reference from the same body.
        Fields are length-prefixed so no two member lists share a text.
        """
        text = "".join(
            [f"{len(self.batch_id)}:{self.batch_id}"]
            + [
                f"\x00{c.op}\x00{len(c.key)}:{c.key}\x00{len(c.command_id)}:{c.command_id}"
                for c in self.commands
            ]
        )
        digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
        return BatchRef(self.batch_id, int.from_bytes(digest, "big"))

    def _cmp_key(self) -> Tuple[Tuple[Tuple[str, str, str, str], ...], str]:
        return (tuple(c.sort_key() for c in self.commands), self.batch_id)

    @staticmethod
    def _coerce(other: object):
        """Comparison key for anything a batch can race against in a slot."""
        if isinstance(other, CommandBatch):
            return other._cmp_key()
        if isinstance(other, KVCommand):
            # A bare command (legacy proposal or gap-repair noop) orders
            # like the singleton batch of itself.
            return ((other.sort_key(),), other.command_id)
        return None

    def __lt__(self, other: object) -> bool:
        key = self._coerce(other)
        if key is None:
            return NotImplemented  # lets BOTTOM's reflected comparison apply
        return self._cmp_key() < key

    def __le__(self, other: object) -> bool:
        key = self._coerce(other)
        if key is None:
            return NotImplemented
        return self._cmp_key() <= key

    def __gt__(self, other: object) -> bool:
        key = self._coerce(other)
        if key is None:
            return NotImplemented
        return self._cmp_key() > key

    def __ge__(self, other: object) -> bool:
        key = self._coerce(other)
        if key is None:
            return NotImplemented
        return self._cmp_key() >= key


#: Anything a slot can decide: one command or a batch of them.
SlotValue = Union[KVCommand, CommandBatch]


def commands_in(value: SlotValue) -> Tuple[KVCommand, ...]:
    """The commands carried by a decided slot value, in apply order."""
    if isinstance(value, CommandBatch):
        return value.commands
    return (value,)


class KVStore:
    """Deterministic key-value state machine with duplicate suppression."""

    def __init__(self) -> None:
        self.data: Dict[str, Any] = {}
        self.applied_ids: set = set()
        self.log: List[KVCommand] = []
        # (version, entries) cache for the compiled shard-meta table;
        # invalidated by the version counter every config apply bumps.
        self._shard_cache: Optional[Tuple[int, List[Tuple[str, Dict[str, Any]]]]] = None

    def apply(self, command: KVCommand) -> Any:
        """Apply *command*; returns the operation result.

        Re-applying a command_id already applied is a no-op returning the
        marker string ``"duplicate"`` — the SMR layer relies on this when
        the same command wins more than one slot.

        A data command whose key falls in a range this store fenced away
        (a ``shard_prepare`` config applied earlier in this log) returns
        :data:`WRONG_SHARD` **without** executing, logging, or marking the
        id applied: the epoch-fencing rule is enforced at apply time, so a
        command that raced into the consensus log behind a fence is
        refused identically on every replica and stays free to commit in
        the range's new home group.
        """
        if command.command_id and command.command_id in self.applied_ids:
            return "duplicate"
        if (
            command.op in ("get", "put", "cas")
            and command.key
            and not command.key.startswith("__")
            and self.fence_for(command.key) is not None
        ):
            return WRONG_SHARD
        self.applied_ids.add(command.command_id)
        self.log.append(command)
        if command.op == "noop":
            return None
        if command.op == "config":
            return self._apply_config(command)
        if command.op == "get":
            return self.data.get(command.key)
        if command.op == "put":
            self.data[command.key] = command.value
            return command.value
        if command.op == "cas":
            current = self.data.get(command.key)
            if current == command.expected:
                self.data[command.key] = command.value
                return True
            return False
        raise AssertionError(f"unreachable op {command.op!r}")

    # ------------------------------------------------------------------
    # Shard metadata: replicated fences and installed ranges.
    # ------------------------------------------------------------------

    def shard_entries(self) -> List[Tuple[str, Dict[str, Any]]]:
        """Compiled ``("fence" | "owned", info)`` entries, epoch-ascending.

        Derived from the reserved ``__shard__/`` keys so it is identical
        on every replica at the same log position and survives snapshots,
        WAL replay, and state transfer unchanged.
        """
        version = self.data.get(SHARD_META_PREFIX + "version", 0)
        if self._shard_cache is not None and self._shard_cache[0] == version:
            return self._shard_cache[1]
        entries: List[Tuple[str, Dict[str, Any]]] = []
        for key, info in self.data.items():
            if not key.startswith(SHARD_META_PREFIX):
                continue
            tail = key[len(SHARD_META_PREFIX):]
            if tail.startswith("fence/"):
                entries.append(("fence", info))
            elif tail.startswith("owned/"):
                entries.append(("owned", info))
        entries.sort(key=lambda entry: entry[1]["epoch"])
        self._shard_cache = (version, entries)
        return entries

    def fence_for(self, key: str) -> Optional[Dict[str, Any]]:
        """The fence covering *key*, unless a later install re-owned it.

        Returns the highest-epoch shard-meta entry covering the key's
        slot when that entry is a fence (the range was handed away), else
        ``None`` (never sharded here, or installed back at a higher
        epoch).
        """
        best: Optional[Tuple[str, Dict[str, Any]]] = None
        for kind, info in self.shard_entries():
            if info["lo"] <= key_slot(key, info["slots"]) < info["hi"]:
                best = (kind, info)  # epoch-ascending: last hit wins
        if best is not None and best[0] == "fence":
            return best[1]
        return None

    def _apply_config(self, command: KVCommand) -> Any:
        payload = command.value if isinstance(command.value, dict) else {}
        kind = payload.get("kind")
        lo, hi = payload.get("lo"), payload.get("hi")
        tag = f"{lo}-{hi}"
        result: Any = None
        if kind == "shard_prepare":
            self.data[SHARD_META_PREFIX + f"fence/{tag}"] = {
                "lo": lo,
                "hi": hi,
                "slots": payload["slots"],
                "epoch": payload["epoch"],
                "dest": payload["dest"],
            }
            result = "fenced"
        elif kind == "shard_install":
            for key, value in (payload.get("data") or {}).items():
                self.data[key] = value
            for command_id in payload.get("applied_ids") or ():
                self.applied_ids.add(command_id)
            self.data[SHARD_META_PREFIX + f"owned/{tag}"] = {
                "lo": lo,
                "hi": hi,
                "slots": payload["slots"],
                "epoch": payload["epoch"],
                "source": payload.get("source", -1),
            }
            result = "installed"
        elif kind == "shard_release":
            slots = payload["slots"]
            doomed = [
                key
                for key in self.data
                if not key.startswith("__") and lo <= key_slot(key, slots) < hi
            ]
            for key in doomed:
                del self.data[key]
            result = "released"
        self.data[SHARD_META_PREFIX + "version"] = (
            self.data.get(SHARD_META_PREFIX + "version", 0) + 1
        )
        return result

    def snapshot(self) -> Dict[str, Any]:
        return dict(self.data)

    def snapshot_state(self) -> Dict[str, Any]:
        """Full-fidelity state for durability: the map and the log.

        :meth:`snapshot` is the *observable* state (the map); restore
        also needs the applied command log (the cross-replica convergence
        witness checked by ``check_logs_consistent`` and the cluster
        tests). The applied-id set is not part of the state: it is a
        function of the log, and :meth:`from_state` rebuilds it.
        """
        return {"data": dict(self.data), "log": list(self.log)}

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "KVStore":
        """Rebuild a store from :meth:`snapshot_state` output.

        ``applied_ids`` is derived from the two places :meth:`apply` adds
        to it: every logged command's own id, plus the ids a logged
        ``shard_install`` carried in from the range's previous home.
        """
        store = cls()
        store.data = dict(state["data"])
        store.log = list(state["log"])
        ids = store.applied_ids
        for command in store.log:
            ids.add(command.command_id)
            if command.op == "config" and isinstance(command.value, dict):
                if command.value.get("kind") == "shard_install":
                    ids.update(command.value.get("applied_ids") or ())
        return store
