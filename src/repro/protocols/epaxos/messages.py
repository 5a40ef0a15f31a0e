"""Commands and message vocabulary of the EPaxos-style protocol."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Optional

from ...core.messages import Message
from ...core.process import ClientRequest
from .deps import InstanceId


@dataclass(frozen=True)
class Command:
    """A state-machine command over a single key.

    Two commands *interfere* when they touch the same key and at least one
    writes — the standard EPaxos conflict model for a key-value store.
    Reads commute with reads.
    """

    key: str
    op: str  # "get" | "put"
    value: Any = None
    command_id: str = ""

    def __post_init__(self) -> None:
        if self.op not in ("get", "put"):
            raise ValueError(f"unknown op {self.op!r}")

    def conflicts_with(self, other: "Command") -> bool:
        if self.key != other.key:
            return False
        return self.op == "put" or other.op == "put"


#: The no-op committed by recovery when an instance turns out empty.
NOOP = Command(key="", op="get", command_id="noop")


@dataclass(frozen=True)
class Request(ClientRequest):
    """Client submission of a command to a replica (its command leader)."""

    command: Command


@dataclass(frozen=True)
class PreAccept(Message):
    instance: InstanceId
    ballot: int
    command: Command
    seq: int
    deps: FrozenSet[InstanceId]


@dataclass(frozen=True)
class PreAcceptOK(Message):
    instance: InstanceId
    ballot: int
    seq: int
    deps: FrozenSet[InstanceId]
    changed: bool  # did the replier enlarge seq/deps?


@dataclass(frozen=True)
class Accept(Message):
    instance: InstanceId
    ballot: int
    command: Command
    seq: int
    deps: FrozenSet[InstanceId]


@dataclass(frozen=True)
class AcceptOK(Message):
    instance: InstanceId
    ballot: int


@dataclass(frozen=True)
class Commit(Message):
    instance: InstanceId
    command: Command
    seq: int
    deps: FrozenSet[InstanceId]


@dataclass(frozen=True)
class Prepare(Message):
    """Recovery: take over an instance at a higher ballot."""

    instance: InstanceId
    ballot: int


@dataclass(frozen=True)
class PrepareOK(Message):
    instance: InstanceId
    ballot: int
    status: str  # "none" | "preaccepted" | "accepted" | "committed"
    command: Optional[Command]
    seq: int
    deps: FrozenSet[InstanceId]
    vballot: int  # ballot at which the reported state was adopted
    was_leader_reply: bool  # is the replier the instance's original leader?
