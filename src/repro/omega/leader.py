"""The Ω eventual leader election service (§C.1 of the paper).

To guarantee Termination, the slow path of Figure 1 nominates a single
process to start new ballots: "a process p_i initiates a new ballot only if
Ω identifies p_i as the leader". Ω guarantees that eventually all correct
processes agree on the same correct leader; under partial synchrony it is
implementable in the standard way (Chandra–Toueg) from heartbeats and
timeouts.

Two implementations are provided:

* :class:`StaticOmega` — an oracle whose output the harness dictates.
  Lower-bound witnesses and unit tests use it to pin the leader without
  extra message traffic.
* :class:`HeartbeatOmega` — the real distributed implementation: every
  process broadcasts a heartbeat each ``Δ``; a process trusts exactly the
  peers it heard from within the suspicion timeout and outputs the
  lowest-id trusted process. After GST heartbeats arrive within ``Δ``, so
  all correct processes converge on the lowest-id correct process.

Protocols embed an :class:`OmegaService` and forward it unrecognized
messages and ``omega:``-prefixed timers; composition stays in protocol
code, keeping Ω reusable across Paxos, Fast Paxos, and Figure 1.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from ..core.errors import ConfigurationError
from ..core.messages import Message
from ..core.process import Context, ProcessId

#: Timer name used by the heartbeat implementation.
HEARTBEAT_TIMER = "omega:heartbeat"


@dataclass(frozen=True)
class Heartbeat(Message):
    """Periodic liveness beacon carrying nothing but its sender's vitality."""


class OmegaService(ABC):
    """Interface between a protocol process and its Ω module."""

    @abstractmethod
    def leader(self, now: float) -> ProcessId:
        """The process currently trusted as leader."""

    def on_start(self, ctx: Context) -> None:
        """Hook run from the host protocol's ``on_start``."""

    def handle_message(self, ctx: Context, sender: ProcessId, message: Message) -> bool:
        """Offer *message* to Ω; returns ``True`` when consumed."""
        return False

    def handle_timer(self, ctx: Context, name: str) -> bool:
        """Offer a timer expiry to Ω; returns ``True`` when consumed."""
        return False


class StaticOmega(OmegaService):
    """Oracle Ω: outputs a fixed leader or a time-dependent one.

    Accepts either a process id or a callable from time to process id.
    Harnesses typically pass the lowest-id process outside the faulty set,
    which is what the heartbeat implementation converges to anyway.
    """

    def __init__(self, leader: Union[ProcessId, Callable[[float], ProcessId]]) -> None:
        if callable(leader):
            self._leader_fn = leader
        else:
            self._leader_fn = lambda now: leader

    def leader(self, now: float) -> ProcessId:
        return self._leader_fn(now)


class HeartbeatOmega(OmegaService):
    """Distributed Ω from heartbeats and timeouts.

    Parameters
    ----------
    pid, n:
        Identity of the host process and the system size.
    delta:
        The known message-delay bound ``Δ``; heartbeats are sent every
        ``Δ`` by default.
    suspect_timeout:
        A peer not heard from for this long is suspected. Defaults to
        ``4Δ`` — one heartbeat interval plus one delivery bound, doubled
        for slack; any value ``> 2Δ`` preserves eventual accuracy after
        GST, smaller values only cost extra (harmless) suspicions.
    """

    def __init__(
        self,
        pid: ProcessId,
        n: int,
        delta: float,
        heartbeat_interval: Optional[float] = None,
        suspect_timeout: Optional[float] = None,
    ) -> None:
        if delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {delta}")
        self.pid = pid
        self.n = n
        self.delta = delta
        self.heartbeat_interval = (
            heartbeat_interval if heartbeat_interval is not None else delta
        )
        self.suspect_timeout = (
            suspect_timeout if suspect_timeout is not None else 4 * delta
        )
        if self.suspect_timeout <= self.heartbeat_interval:
            raise ConfigurationError(
                "suspect_timeout must exceed the heartbeat interval "
                f"({self.suspect_timeout} <= {self.heartbeat_interval})"
            )
        # Everyone starts trusted: last_heard is optimistically "now-ish" at
        # time 0 so that the initial leader is process 0, matching the
        # convention of the paper's protocols (ballot 0 has no leader at
        # all; the first slow ballot goes to whoever Ω names).
        self.last_heard: Dict[ProcessId, float] = {q: 0.0 for q in range(n)}

    def on_start(self, ctx: Context) -> None:
        ctx.broadcast(Heartbeat(), include_self=False)
        ctx.set_timer(HEARTBEAT_TIMER, self.heartbeat_interval)

    def handle_message(self, ctx: Context, sender: ProcessId, message: Message) -> bool:
        if isinstance(message, Heartbeat):
            self.last_heard[sender] = ctx.now
            return True
        return False

    def handle_timer(self, ctx: Context, name: str) -> bool:
        if name == HEARTBEAT_TIMER:
            ctx.broadcast(Heartbeat(), include_self=False)
            ctx.set_timer(HEARTBEAT_TIMER, self.heartbeat_interval)
            return True
        return False

    def trusted(self, now: float) -> Dict[ProcessId, float]:
        """Peers currently trusted, with the time each was last heard."""
        alive = {self.pid: now}  # a process always trusts itself
        for peer, heard in self.last_heard.items():
            if peer == self.pid:
                continue
            if now - heard <= self.suspect_timeout:
                alive[peer] = heard
        return alive

    def leader(self, now: float) -> ProcessId:
        return min(self.trusted(now))


#: Factory signature protocols accept for building their Ω module.
OmegaFactory = Callable[[ProcessId, int], OmegaService]


def static_omega_factory(leader: Union[ProcessId, Callable[[float], ProcessId]]) -> OmegaFactory:
    """Factory for a :class:`StaticOmega` shared across all processes."""

    def build(pid: ProcessId, n: int) -> OmegaService:
        return StaticOmega(leader)

    return build


def lowest_correct_omega_factory(faulty: set) -> OmegaFactory:
    """Oracle Ω naming the lowest-id process outside *faulty*.

    This is the limit behaviour of :class:`HeartbeatOmega` after GST, in
    oracle form — the right default for synchronous-round harnesses that
    should not pay heartbeat traffic.
    """

    def build(pid: ProcessId, n: int) -> OmegaService:
        candidates = [q for q in range(n) if q not in faulty]
        if not candidates:
            raise ConfigurationError("all processes faulty; Ω has no candidate")
        return StaticOmega(candidates[0])

    return build


def heartbeat_omega_factory(delta: float) -> OmegaFactory:
    """Factory for per-process :class:`HeartbeatOmega` instances at their
    default heartbeat interval and suspicion timeout."""

    def build(pid: ProcessId, n: int) -> OmegaService:
        return HeartbeatOmega(pid, n, delta)

    return build
