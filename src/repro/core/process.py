"""The process abstraction shared by every protocol and every scheduler.

A protocol is implemented as a deterministic state machine — a subclass of
:class:`Process` — reacting to three kinds of activations: start-up, message
delivery, and timer expiry. All interaction with the outside world goes
through a :class:`Context` handed to each activation. This indirection is
what makes the same protocol code runnable under

* the discrete-event simulator (:mod:`repro.sim.simulation`),
* exact synchronous rounds (:mod:`repro.sim.rounds`), and
* the adversarial step-by-step arena (:mod:`repro.sim.arena`)

without modification — the last of which is how the Appendix B
indistinguishability constructions are executed against real code.

Determinism contract
--------------------

Handlers must be deterministic functions of ``(local state, activation)``.
They must not read wall-clock time, use unseeded randomness, or keep state
outside ``self``. Every scheduler in this library checks run equality by
trace equality and relies on this contract.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, List, Optional, Sequence

from ..obs import NULL_OBS, Observability
from .messages import Message
from .values import MaybeValue

#: Process identifiers are small integers ``0 .. n-1``.
ProcessId = int


class Context(ABC):
    """Capabilities available to a process during one activation.

    Schedulers provide a concrete subclass. The context is only valid for
    the duration of the activation that received it; protocols must not
    store it.
    """

    @property
    @abstractmethod
    def now(self) -> float:
        """Current simulated time."""

    @property
    @abstractmethod
    def pid(self) -> ProcessId:
        """Identifier of the process being activated."""

    @property
    @abstractmethod
    def n(self) -> int:
        """Total number of processes in the system."""

    @property
    def others(self) -> List[ProcessId]:
        """All process ids except this process's own."""
        return [p for p in range(self.n) if p != self.pid]

    @property
    def obs(self) -> Observability:
        """Observability sink (metrics registry + span recorder).

        Instrumented schedulers — the discrete-event simulator and the
        live node runtime — override this with the activated node's real
        :class:`~repro.obs.Observability`. The default is the shared
        no-op sink, so uninstrumented harnesses (arena, explorer worlds)
        pay nothing and protocol code can emit unconditionally.
        """
        return NULL_OBS

    @abstractmethod
    def send(self, dst: ProcessId, message: Message) -> None:
        """Send *message* to process *dst* over a reliable link."""

    def broadcast(self, message: Message, include_self: bool = False) -> None:
        """Send *message* to every process (optionally including self).

        Figure 1 uses both flavours: ``Propose``/``Decide`` go to
        ``Π \\ {p_i}`` while ``1A``/``2A`` go to all of ``Π``.
        """
        targets: Sequence[ProcessId]
        if include_self:
            targets = range(self.n)
        else:
            targets = self.others
        for dst in targets:
            self.send(dst, message)

    @abstractmethod
    def set_timer(self, name: str, delay: float) -> None:
        """(Re)arm the named timer to fire *delay* time units from now.

        Re-arming an already pending timer replaces the earlier deadline.
        """

    @abstractmethod
    def cancel_timer(self, name: str) -> None:
        """Cancel the named timer if pending; no-op otherwise."""

    @abstractmethod
    def decide(self, value: MaybeValue) -> None:
        """Record that this process decides *value*.

        Schedulers record the first decision per process; protocols are
        expected to guard against double decisions themselves, but the
        runtime additionally verifies that repeated decisions carry the
        same value (raising ``ProtocolError`` otherwise).
        """


class Process(ABC):
    """Deterministic protocol state machine for one process.

    Subclasses implement the three activation handlers. The constructor
    signature is protocol-specific, but all built-in protocols accept at
    least ``(pid, n)`` plus their resilience parameters.
    """

    def __init__(self, pid: ProcessId, n: int) -> None:
        if n < 1:
            raise ValueError(f"system size must be positive, got {n}")
        if not 0 <= pid < n:
            raise ValueError(f"pid {pid} out of range for n={n}")
        self.pid = pid
        self.n = n

    @abstractmethod
    def on_start(self, ctx: Context) -> None:
        """Activation at time 0, before any message is delivered."""

    @abstractmethod
    def on_message(self, ctx: Context, sender: ProcessId, message: Message) -> None:
        """Activation on delivery of *message* sent by *sender*."""

    def on_timer(self, ctx: Context, name: str) -> None:  # pragma: no cover
        """Activation on expiry of the timer *name* (default: ignore)."""

    # ------------------------------------------------------------------
    # Introspection hooks used by traces, examples, and debugging output.
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Return a shallow copy of interesting local state for traces.

        The default implementation exposes every public attribute that is
        not a callable. Protocols may override to present a curated view.
        """
        state = {}
        for key, value in vars(self).items():
            if key.startswith("_") or callable(value):
                continue
            state[key] = value
        return state

    def __repr__(self) -> str:
        return f"<{type(self).__name__} pid={self.pid} n={self.n}>"


#: A factory producing the process object for a given pid in a given system.
#: All harnesses (rounds, simulation, arena) take a factory rather than
#: ready-made processes so that each run gets fresh state.
ProcessFactory = Callable[[ProcessId, int], Process]


class ClientRequest(Message):
    """Marker base class for messages originating outside the protocol.

    The SMR layer and the consensus-object harness inject ``propose``
    invocations as client requests; schedulers treat them like ordinary
    messages with a reserved sender id ``CLIENT``.
    """


#: Reserved sender id used for external (client) injections.
CLIENT: ProcessId = -1
