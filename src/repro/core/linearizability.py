"""Linearizability checking for consensus-*object* histories.

The object formulation of consensus (Castañeda et al. 2018, §2 of the
paper) exposes a single operation ``propose(v)`` that eventually returns
the decided value. The object must be linearizable with respect to the
sequential specification of consensus:

    the first ``propose(v)`` in the linearization returns ``v``; every
    later ``propose(_)`` returns that same ``v``.

For this particular object the general (NP-hard) linearizability question
collapses to a simple closed-form criterion, which we implement directly
and cross-validate in the test suite against a brute-force enumerator
(:func:`linearizable_bruteforce`):

    a history is linearizable iff all completed operations return the same
    value ``w``, and some operation with argument ``w`` was invoked no
    later than the earliest response of any completed operation.

The second condition lets a *pending* operation be the linearization
winner, which matters in crash scenarios: a proposer can crash after its
value wins but before its own ``propose`` returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .errors import HistoryError
from .process import ProcessId
from .specs import Violation
from .values import MaybeValue

#: The longest history :func:`linearizable_bruteforce` will enumerate.
BRUTEFORCE_MAX_OPERATIONS = 8


@dataclass(frozen=True)
class Operation:
    """One ``propose`` operation in a history.

    ``response_time``/``result`` are ``None`` while the operation is
    pending (the caller crashed or the run was cut off before the return).
    """

    pid: ProcessId
    argument: MaybeValue
    invoke_time: float
    response_time: Optional[float] = None
    result: Optional[MaybeValue] = None

    @property
    def completed(self) -> bool:
        return self.response_time is not None

    def validate(self) -> None:
        if self.completed and self.response_time < self.invoke_time:
            raise HistoryError(
                f"operation by {self.pid} responds at {self.response_time} "
                f"before its invocation at {self.invoke_time}"
            )

    def precedes(self, other: "Operation") -> bool:
        """Real-time order: self completed strictly before *other* began."""
        return self.completed and self.response_time < other.invoke_time


class History:
    """An append-only collection of ``propose`` operations."""

    def __init__(self, operations: Sequence[Operation] = ()) -> None:
        self.operations: List[Operation] = []
        for operation in operations:
            self.append(operation)

    def append(self, operation: Operation) -> None:
        operation.validate()
        self.operations.append(operation)

    @property
    def completed(self) -> List[Operation]:
        return [op for op in self.operations if op.completed]

    @property
    def pending(self) -> List[Operation]:
        return [op for op in self.operations if not op.completed]

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)


def check_linearizable(history: History) -> List[Violation]:
    """Closed-form linearizability check for consensus histories.

    Returns an empty list when the history is linearizable, otherwise a
    list of violations explaining why it is not.
    """
    completed = history.completed
    if not completed:
        return []

    results = {repr(op.result): op.result for op in completed}
    if len(results) > 1:
        detail = ", ".join(
            f"p{op.pid}->{op.result!r}" for op in sorted(completed, key=lambda o: o.pid)
        )
        return [
            Violation(
                "linearizability",
                f"completed propose operations returned distinct values: {detail}",
            )
        ]

    winner = completed[0].result
    earliest_response = min(op.response_time for op in completed)
    candidates = [
        op
        for op in history.operations
        if op.argument == winner and op.invoke_time <= earliest_response
    ]
    if not candidates:
        return [
            Violation(
                "linearizability",
                f"all operations returned {winner!r}, but no propose({winner!r}) "
                f"was invoked by the earliest response time {earliest_response}",
            )
        ]
    return []


def is_linearizable(history: History) -> bool:
    """Boolean convenience wrapper around :func:`check_linearizable`."""
    return not check_linearizable(history)


def linearizable_bruteforce(history: History) -> bool:
    """Reference implementation by exhaustive enumeration.

    Tries every subset of pending operations and every interleaving of the
    chosen operations that respects real-time order, and asks whether some
    sequential execution of the consensus object matches. Exponential —
    guarded by :data:`BRUTEFORCE_MAX_OPERATIONS` — and used only to validate
    :func:`check_linearizable` in the test suite.
    """
    operations = history.operations
    if len(operations) > BRUTEFORCE_MAX_OPERATIONS:
        raise HistoryError(
            f"brute-force checker limited to {BRUTEFORCE_MAX_OPERATIONS} operations; "
            f"got {len(operations)}"
        )
    completed = [op for op in operations if op.completed]
    pending = [op for op in operations if not op.completed]

    for take in range(len(pending) + 1):
        for extra in itertools.combinations(pending, take):
            chosen = completed + list(extra)
            for order in itertools.permutations(chosen):
                if _respects_real_time(order) and _matches_sequential_spec(order):
                    return True
    return not completed  # empty linearization is fine only with no responses


def _respects_real_time(order: Sequence[Operation]) -> bool:
    for i, earlier in enumerate(order):
        for later in order[i + 1:]:
            if later.precedes(earlier):
                return False
    return True


def _matches_sequential_spec(order: Sequence[Operation]) -> bool:
    if not order:
        return True
    winner = order[0].argument
    for operation in order:
        if operation.completed and operation.result != winner:
            return False
    return True
