"""State-machine replication: replicated log, KV store, client harness."""

from .client import (
    ClientOp,
    WorkloadOutcome,
    check_logs_consistent,
    put_get_workload,
    run_kv_workload,
)
from .kvstore import (
    BatchRef,
    CommandBatch,
    KVCommand,
    KVStore,
    NOOP_COMMAND,
    SlotValue,
    commands_in,
)
from .leader_log import MultiPaxosReplica, multipaxos_factory
from .log import (
    GAP_TIMER,
    BodyRequest,
    SMRReplica,
    Slotted,
    SubmitCommand,
    smr_factory,
)

__all__ = [
    "BatchRef",
    "BodyRequest",
    "ClientOp",
    "CommandBatch",
    "GAP_TIMER",
    "KVCommand",
    "MultiPaxosReplica",
    "KVStore",
    "NOOP_COMMAND",
    "SMRReplica",
    "SlotValue",
    "Slotted",
    "SubmitCommand",
    "WorkloadOutcome",
    "check_logs_consistent",
    "commands_in",
    "multipaxos_factory",
    "put_get_workload",
    "run_kv_workload",
    "smr_factory",
]
