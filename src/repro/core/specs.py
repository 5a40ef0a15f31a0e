"""Executable consensus specifications (Section 2 of the paper).

The consensus *decision task* requires of every run:

* **Validity** — every decision is the proposal of some process;
* **Agreement** — no two decisions are different;
* **Termination** — every correct process eventually decides.

These are judgments on a finished :class:`repro.core.runs.Run`. Checkers
return a list of :class:`Violation` records (empty list means the property
holds); ``require_*`` variants raise :class:`SpecViolationError` instead,
which is the convenient form inside tests.

Termination is only meaningful relative to a run that was allowed to go on
long enough; the harnesses in :mod:`repro.sim` run protocols to quiescence
(no pending events) or to an explicit horizon, and the checker takes the
set of processes expected to decide as an argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set

from .errors import SpecViolationError
from .process import ProcessId
from .runs import Run
from .values import MaybeValue, is_bottom


@dataclass(frozen=True)
class Violation:
    """One specification violation found in a run."""

    property_name: str
    description: str

    def __str__(self) -> str:
        return f"[{self.property_name}] {self.description}"


def check_validity(run: Run) -> List[Violation]:
    """Every decided value must have been proposed by some process.

    For the object formulation, ``run.proposals`` contains only the values
    actually passed to ``propose``, so the same check covers both
    formulations.
    """
    violations: List[Violation] = []
    proposed = {v for v in run.proposals.values() if not is_bottom(v)}
    for pid, record in run.decisions.items():
        if is_bottom(record.value):
            violations.append(
                Violation("validity", f"process {pid} decided BOTTOM")
            )
        elif record.value not in proposed:
            violations.append(
                Violation(
                    "validity",
                    f"process {pid} decided {record.value!r}, which no "
                    f"process proposed (proposals: {sorted(map(repr, proposed))})",
                )
            )
    return violations


def check_agreement(run: Run) -> List[Violation]:
    """No two processes may decide different values."""
    values = run.decided_values()
    if len(values) <= 1:
        return []
    by_value = {}
    for pid, record in run.decisions.items():
        by_value.setdefault(repr(record.value), []).append(pid)
    detail = "; ".join(
        f"{value} decided by {sorted(pids)}" for value, pids in sorted(by_value.items())
    )
    return [Violation("agreement", f"distinct decisions: {detail}")]


def check_termination(run: Run, expected: Optional[Iterable[ProcessId]] = None) -> List[Violation]:
    """Every process in *expected* (default: all correct) must have decided."""
    expected_set: Set[ProcessId] = (
        set(expected) if expected is not None else run.correct
    )
    missing = sorted(pid for pid in expected_set if run.decision_time(pid) is None)
    if not missing:
        return []
    return [
        Violation(
            "termination",
            f"processes {missing} never decided (crashed: {sorted(run.crashed)})",
        )
    ]


def check_consensus(run: Run) -> List[Violation]:
    """All three task properties at once (termination of every correct
    process)."""
    violations = check_validity(run)
    violations.extend(check_agreement(run))
    violations.extend(check_termination(run))
    return violations


def require_consensus(run: Run) -> None:
    """Raise :class:`SpecViolationError` unless *run* satisfies consensus."""
    violations = check_consensus(run)
    if violations:
        raise SpecViolationError(
            "consensus specification violated:\n"
            + "\n".join(f"  - {violation}" for violation in violations)
        )


def require_agreement(run: Run) -> None:
    """Raise :class:`SpecViolationError` on an agreement violation."""
    violations = check_agreement(run)
    if violations:
        raise SpecViolationError(str(violations[0]))


def decided_value_or_none(run: Run) -> Optional[MaybeValue]:
    """The unique decided value of the run, if any process decided.

    Raises :class:`SpecViolationError` if the run decided two values —
    callers that want the violation, not an exception, should use
    :func:`check_agreement` first.
    """
    values = run.decided_values()
    if not values:
        return None
    if len(values) > 1:
        raise SpecViolationError(f"run decided multiple values: {values!r}")
    return next(iter(values))
