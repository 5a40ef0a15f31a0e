"""Canonical factory builders wiring protocols to the checkers.

A *builder* closes over a protocol's resilience parameters and produces a
:class:`~repro.core.process.ProcessFactory` for one concrete run, given
the run's initial configuration and faulty set. The faulty set is needed
to hand the protocol an Ω oracle consistent with the run — the oracle
names the lowest-id correct process, which is what the heartbeat
implementation converges to after GST (integration tests cover the real
heartbeat Ω separately; the checkers use oracles to keep traces clean).
Every protocol is built at its factory's default ``Δ``, the checkers'
:data:`~repro.checks.two_step.DELTA`.
"""

from __future__ import annotations

from typing import AbstractSet, Mapping, Optional

from ..core.process import ProcessFactory, ProcessId
from ..core.values import MaybeValue
from ..omega import lowest_correct_omega_factory
from ..protocols.fast_paxos import fast_paxos_factory
from ..protocols.paxos import paxos_factory
from ..protocols.twostep import (
    TwoStepConfig,
    twostep_object_factory,
    twostep_task_factory,
)
from .two_step import ObjectFactoryBuilder, TaskFactoryBuilder


def twostep_task_builder(
    f: int, e: int, config: Optional[TwoStepConfig] = None
) -> TaskFactoryBuilder:
    """Figure 1, task variant (black lines)."""

    def build(
        proposals: Mapping[ProcessId, MaybeValue], faulty: AbstractSet[ProcessId]
    ) -> ProcessFactory:
        return twostep_task_factory(
            proposals,
            f,
            e,
            omega_factory=lowest_correct_omega_factory(set(faulty)),
            config=config,
        )

    return build


def twostep_object_builder(f: int, e: int) -> ObjectFactoryBuilder:
    """Figure 1, object variant (black + red lines)."""

    def build(faulty: AbstractSet[ProcessId]) -> ProcessFactory:
        return twostep_object_factory(
            f, e, omega_factory=lowest_correct_omega_factory(set(faulty))
        )

    return build


def paxos_builder(f: int) -> TaskFactoryBuilder:
    """Classic Paxos (never e-two-step for e > 0)."""

    def build(
        proposals: Mapping[ProcessId, MaybeValue], faulty: AbstractSet[ProcessId]
    ) -> ProcessFactory:
        return paxos_factory(
            proposals, f, omega_factory=lowest_correct_omega_factory(set(faulty))
        )

    return build


def fast_paxos_builder(f: int, e: int) -> TaskFactoryBuilder:
    """Fast Paxos (e-two-step iff n >= max{2e+f+1, 2f+1})."""

    def build(
        proposals: Mapping[ProcessId, MaybeValue], faulty: AbstractSet[ProcessId]
    ) -> ProcessFactory:
        return fast_paxos_factory(
            proposals,
            f,
            e,
            omega_factory=lowest_correct_omega_factory(set(faulty)),
        )

    return build
