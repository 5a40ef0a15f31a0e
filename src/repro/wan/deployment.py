"""Geo-replicated deployments: placement, analytics, and measurement.

A :class:`Deployment` places ``n`` protocol processes on a
:class:`~repro.wan.topologies.Topology` (several processes may share a
site) and provides

* the :class:`~repro.sim.latency.WanMatrix` latency model to simulate it,
* closed-form *predictions* of fast-path commit latency per proposer —
  the round trip to the ``k``-th nearest needed responder — and
* simulation-based *measurements* that the E5 experiment checks the
  predictions against.

The analytic core: on Figure 1's fast path a proposer needs ``n - e - 1``
``2B`` replies; the best case is the ``n - e - 1`` round-trip-nearest
peers, so the decisive cost is the ``(n - e - 1)``-th smallest RTT from
the proposer. Growing ``n`` at fixed ``e`` (as a stronger definition like
Lamport's forces) pushes that index into farther sites, which on WAN
geometry costs the "hundreds of milliseconds" the paper talks about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError
from ..core.process import ProcessId
from ..core.values import BOTTOM
from ..omega import static_omega_factory
from ..protocols.twostep import ProposeRequest, twostep_object_factory
from ..sim.latency import WanMatrix
from ..sim.simulation import Simulation
from .topologies import Topology


@dataclass(frozen=True)
class Deployment:
    """``n`` processes placed on a topology (process i at placement[i])."""

    topology: Topology
    placement: Tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.placement)

    def latency_model(self) -> WanMatrix:
        """The topology's delays between the processes' sites, no jitter."""
        return WanMatrix(
            [list(row) for row in self.topology.matrix], placement=list(self.placement)
        )

    def one_way(self, a: ProcessId, b: ProcessId) -> float:
        return self.topology.one_way(self.placement[a], self.placement[b])

    def rtt(self, a: ProcessId, b: ProcessId) -> float:
        return self.one_way(a, b) + self.one_way(b, a)

    def delta(self) -> float:
        """A safe ``Δ`` for timers: the largest one-way delay."""
        return self.topology.max_one_way()

    def site_of(self, pid: ProcessId) -> str:
        return self.topology.sites[self.placement[pid]]


def round_robin_deployment(topology: Topology, n: int) -> Deployment:
    """Place ``n`` processes over the sites in round-robin order."""
    if n < 1:
        raise ConfigurationError(f"need n >= 1, got {n}")
    return Deployment(topology, tuple(i % len(topology.sites) for i in range(n)))


def fast_path_prediction(
    deployment: Deployment, proposer: ProcessId, responses_needed: int
) -> float:
    """Closed-form best-case fast-path commit latency for *proposer*.

    ``responses_needed`` is the number of replies the proposer must
    gather from *other* processes (``n - e - 1`` in Figure 1, ``n - e``
    vote messages for a Fast Paxos learner, ``n - f - 1`` for a Paxos
    leader). The best schedule hears the nearest peers, so the answer is
    the ``responses_needed``-th smallest RTT from the proposer.
    """
    others = [pid for pid in range(deployment.n) if pid != proposer]
    if responses_needed <= 0:
        return 0.0
    if responses_needed > len(others):
        raise ConfigurationError(
            f"need {responses_needed} responses but only {len(others)} peers exist"
        )
    rtts = sorted(deployment.rtt(proposer, pid) for pid in others)
    return rtts[responses_needed - 1]


def predicted_commit_latency_twostep(
    deployment: Deployment, proposer: ProcessId, e: int
) -> float:
    """Figure 1 fast path: ``n - e - 1`` replies needed."""
    return fast_path_prediction(deployment, proposer, deployment.n - e - 1)


def predicted_commit_latency_fast_paxos(
    deployment: Deployment, proposer: ProcessId, e: int
) -> float:
    """Fast Paxos fast path, as perceived at the proposer itself.

    The proposer broadcasts; acceptors vote to all learners; the proposer
    (a learner) decides on ``n - e`` votes, one of which is its own
    acceptor's (local). Best case: the ``n - e - 1`` round-trip-nearest
    peers relay the value back — the same expression as Figure 1, but at
    Fast Paxos's larger minimal ``n`` for equal (f, e).
    """
    return fast_path_prediction(deployment, proposer, deployment.n - e - 1)


def predicted_commit_latency_paxos(
    deployment: Deployment,
    proxy: ProcessId,
    f: int,
    leader: ProcessId = 0,
) -> float:
    """Leader-based Paxos, as perceived by a *proxy* forwarding to the
    leader: forward hop + the leader's round trip to its ``n - f - 1``
    nearest peers + the notification hop back.

    When the proxy is the leader the forward/notify hops are local
    (``INTRA_REGION_MS``-scale if co-located, zero here since no network
    hop happens at all).
    """
    quorum_wait = fast_path_prediction(deployment, leader, deployment.n - f - 1)
    if proxy == leader:
        return quorum_wait
    return (
        deployment.one_way(proxy, leader)
        + quorum_wait
        + deployment.one_way(leader, proxy)
    )


def measured_commit_latency_twostep(
    deployment: Deployment, proposer: ProcessId, f: int, e: int
) -> Optional[float]:
    """Simulate a solo proposal on the WAN and measure decision latency.

    Uses the object variant (only the proposer has an input — the proxy
    scenario); the ballot timer is scaled to the deployment's ``Δ`` so the
    fast path is not cut short by spurious recoveries. A proposer still
    undecided at ``40Δ`` reads ``None``.
    """
    delta = deployment.delta()
    factory = twostep_object_factory(
        f, e, delta=delta, omega_factory=static_omega_factory(proposer)
    )
    simulation = Simulation(
        factory, deployment.n, latency=deployment.latency_model()
    )
    simulation.inject(0.0, proposer, ProposeRequest(1))
    simulation.run(
        until=40.0 * delta,
        stop=lambda run: run.decision_time(proposer) is not None,
    )
    return simulation.run_record.decision_time(proposer)


def per_site_latency_table(
    deployment: Deployment, e: int, f: int
) -> List[Dict[str, object]]:
    """Prediction vs measurement for every proposer (one table row each)."""
    rows = []
    for proposer in range(deployment.n):
        predicted = predicted_commit_latency_twostep(deployment, proposer, e)
        measured = measured_commit_latency_twostep(deployment, proposer, f, e)
        rows.append(
            {
                "proposer": proposer,
                "site": deployment.site_of(proposer),
                "predicted_ms": predicted,
                "measured_ms": measured,
            }
        )
    return rows
