"""E-faulty synchronous runs (Definition 2) as a turnkey harness.

A run is *E-faulty synchronous* when (1) exactly the processes in ``E`` are
faulty, (2) they crash at the beginning of the first round, (3) every
message sent during a round is delivered precisely at the beginning of the
next round, and (4) local computation is instantaneous. With the simulator's
instantaneous activations, a :class:`FixedLatency` of ``Δ`` realizes clauses
(3)–(4) exactly: everything sent at time ``kΔ`` arrives at ``(k+1)Δ``.

Definition 4 existentially quantifies over such runs — the freedom left to
the existential is *which same-instant message a process handles first*.
:func:`synchronous_run` exposes that freedom through the ``prefer``
argument (deliver a designated process's messages first) or an arbitrary
:data:`DeliveryPriority` policy, and :func:`exists_two_step_run` searches
the policy space the way the paper's existence proofs do.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Set

from ..core.process import ProcessFactory, ProcessId
from ..core.runs import Run
from ..core.values import MaybeValue
from .events import DeliveryPriority, prefer_sender
from .failures import CrashPlan
from .latency import FixedLatency
from .simulation import Simulation


def synchronous_run(
    factory: ProcessFactory,
    n: int,
    faulty: Iterable[ProcessId] = (),
    delta: float = 1.0,
    horizon_rounds: int = 30,
    prefer: Optional[ProcessId] = None,
    delivery_priority: Optional[DeliveryPriority] = None,
    proposals: Optional[Mapping[ProcessId, MaybeValue]] = None,
    f: Optional[int] = None,
) -> Run:
    """Execute one E-faulty synchronous run and return its record.

    Parameters
    ----------
    faulty:
        The set ``E``; crashed at time 0 before taking any step.
    delta:
        The message-delay bound ``Δ``; one round lasts ``Δ``.
    horizon_rounds:
        Stop after this many rounds (protocols with perpetual timers never
        quiesce). Thirty rounds is enough for the slow path of every
        protocol in this library at the sizes the experiments use.
    prefer:
        If given, same-instant messages from this process are handled
        first everywhere — the knob Definition 4's existence proofs turn.
    delivery_priority:
        Full custom policy; mutually exclusive with *prefer*.
    """
    if prefer is not None and delivery_priority is not None:
        raise ValueError("pass either `prefer` or `delivery_priority`, not both")
    policy = delivery_priority
    if prefer is not None:
        policy = prefer_sender(prefer)
    simulation = Simulation(
        factory,
        n,
        latency=FixedLatency(delta),
        crashes=CrashPlan.at_start(faulty),
        proposals=proposals,
        delivery_priority=policy,
        f=f,
    )
    return simulation.run(until=horizon_rounds * delta)


def two_step_deciders(run: Run, delta: float) -> Set[ProcessId]:
    """Processes for which the run is two-step (decided by ``2Δ``)."""
    return run.deciders_by(2 * delta)


def exists_two_step_run(
    factory: ProcessFactory,
    n: int,
    faulty: Iterable[ProcessId],
    target: Optional[ProcessId] = None,
    proposals: Optional[Mapping[ProcessId, MaybeValue]] = None,
) -> Optional[Run]:
    """Search for an E-faulty synchronous run with ``Δ = 1`` that is two-step.

    When *target* is ``None``, looks for a run two-step for *some* process
    (Definition 4, item 1); otherwise for one two-step for *target*
    (item 2). The search space is the set of delivery-preference policies:
    preferring each correct process in turn plus plain FIFO.
    Returns a witnessing run, or ``None`` when no candidate works.
    """
    faulty_set = set(faulty)
    correct = [pid for pid in range(n) if pid not in faulty_set]
    # Try the target first (its own messages first is the natural
    # witness), then every other correct process, then FIFO.
    preferences: List[Optional[ProcessId]] = [] if target is None else [target]
    preferences.extend(pid for pid in correct if pid != target)
    preferences.append(None)
    for preference in preferences:
        run = synchronous_run(
            factory, n, faulty=faulty_set, prefer=preference, proposals=proposals
        )
        deciders = two_step_deciders(run, 1.0)
        if target is None and deciders:
            return run
        if target is not None and target in deciders:
            return run
    return None
