"""Bound formulas, executable lower-bound witnesses, adversarial search."""

from .formulas import (
    BoundRow,
    bounds_table,
    epaxos_fast_threshold,
    interesting_configurations,
    max_e_lamport,
    max_e_object,
    max_e_task,
    min_processes_byzantine_fast,
    min_processes_consensus,
    min_processes_lamport_fast,
    min_processes_object,
    min_processes_task,
)
from .search import FuzzResult, fuzz_safety, random_adversarial_run
from .witness_object import (
    ObjectPartition,
    ObjectWitnessResult,
    default_object_partition,
    object_lower_bound_witness,
)
from .witness_task import (
    TaskPartition,
    TaskWitnessResult,
    default_task_partition,
    task_lower_bound_witness,
)

__all__ = [
    "BoundRow",
    "FuzzResult",
    "ObjectPartition",
    "ObjectWitnessResult",
    "TaskPartition",
    "TaskWitnessResult",
    "bounds_table",
    "default_object_partition",
    "default_task_partition",
    "epaxos_fast_threshold",
    "fuzz_safety",
    "interesting_configurations",
    "max_e_lamport",
    "max_e_object",
    "max_e_task",
    "min_processes_byzantine_fast",
    "min_processes_consensus",
    "min_processes_lamport_fast",
    "min_processes_object",
    "min_processes_task",
    "object_lower_bound_witness",
    "random_adversarial_run",
    "task_lower_bound_witness",
]
