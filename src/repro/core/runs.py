"""Run records: the structured trace of one execution.

Every scheduler in :mod:`repro.sim` produces a :class:`Run` — an append-only
sequence of typed records plus enough metadata (system size, proposals,
crash set) for the specification checkers in :mod:`repro.core.specs` and the
two-step judgments of Definition 3 to be evaluated after the fact.

Records are plain frozen dataclasses so that runs can be compared, hashed,
filtered, and sliced; the lower-bound witnesses compare per-process record
projections to certify that two runs are indistinguishable to a set of
processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .errors import ProtocolError
from .messages import Message
from .process import ProcessId
from .values import BOTTOM, MaybeValue


@dataclass(frozen=True)
class Record:
    """Base class of all trace records; ``time`` is simulated time."""

    time: float


@dataclass(frozen=True)
class SendRecord(Record):
    """Process *sender* handed *message* for *receiver* to the network."""

    sender: ProcessId
    receiver: ProcessId
    message: Message


@dataclass(frozen=True)
class DeliverRecord(Record):
    """*message* from *sender* was delivered to (and handled by) *receiver*."""

    sender: ProcessId
    receiver: ProcessId
    message: Message


@dataclass(frozen=True)
class DecideRecord(Record):
    """Process *pid* decided *value* (first decision only)."""

    pid: ProcessId
    value: MaybeValue


@dataclass(frozen=True)
class CrashRecord(Record):
    """Process *pid* crashed; it takes no further steps."""

    pid: ProcessId


@dataclass(frozen=True)
class ProposeRecord(Record):
    """Process *pid* invoked ``propose(value)`` (object formulation)."""

    pid: ProcessId
    value: MaybeValue


@dataclass(frozen=True)
class TimerSetRecord(Record):
    """Process *pid* armed timer *name* to fire at *deadline*."""

    pid: ProcessId
    name: str
    deadline: float


@dataclass(frozen=True)
class TimerFiredRecord(Record):
    """Timer *name* fired at process *pid*."""

    pid: ProcessId
    name: str


class Run:
    """The complete trace of one execution plus run-level metadata.

    Parameters
    ----------
    n:
        Number of processes in the system.
    proposals:
        Mapping from pid to its input value. For the task formulation this
        is the initial configuration; for the object formulation it records
        the values passed to ``propose`` (pids that never propose are
        absent).
    """

    def __init__(self, n: int, proposals: Optional[Dict[ProcessId, MaybeValue]] = None) -> None:
        self.n = n
        self.proposals: Dict[ProcessId, MaybeValue] = dict(proposals or {})
        self.records: List[Record] = []
        self._decisions: Dict[ProcessId, DecideRecord] = {}
        self._crashed: Set[ProcessId] = set()

    # ------------------------------------------------------------------
    # Recording (called by schedulers).
    # ------------------------------------------------------------------

    def add(self, record: Record) -> None:
        """Append *record*, maintaining the decision and crash indexes.

        A second decision by the same process is tolerated when it repeats
        the same value (protocols may harmlessly re-decide on a forwarded
        ``Decide``) and rejected as a :class:`ProtocolError` otherwise:
        local agreement is the one invariant no scheduler may let slide.
        """
        if isinstance(record, DecideRecord):
            earlier = self._decisions.get(record.pid)
            if earlier is not None:
                if earlier.value != record.value:
                    raise ProtocolError(
                        f"process {record.pid} decided {earlier.value!r} at "
                        f"t={earlier.time} and then {record.value!r} at "
                        f"t={record.time}"
                    )
                return  # duplicate decision of the same value: keep the first
            self._decisions[record.pid] = record
        elif isinstance(record, CrashRecord):
            self._crashed.add(record.pid)
        self.records.append(record)

    def record_proposal(self, pid: ProcessId, value: MaybeValue, time: float = 0.0) -> None:
        """Register an input value for *pid* and trace the invocation."""
        self.proposals[pid] = value
        self.add(ProposeRecord(time=time, pid=pid, value=value))

    # ------------------------------------------------------------------
    # Decision queries.
    # ------------------------------------------------------------------

    @property
    def decisions(self) -> Dict[ProcessId, DecideRecord]:
        """First decision record per process (read-only view by convention)."""
        return self._decisions

    def decided_value(self, pid: ProcessId) -> MaybeValue:
        """Value decided by *pid*, or ``BOTTOM`` if it never decided."""
        record = self._decisions.get(pid)
        return record.value if record is not None else BOTTOM

    def decided_values(self) -> Set[MaybeValue]:
        """The set of distinct values decided by any process."""
        return {record.value for record in self._decisions.values()}

    def decision_time(self, pid: ProcessId) -> Optional[float]:
        """Time of *pid*'s first decision, or ``None``."""
        record = self._decisions.get(pid)
        return record.time if record is not None else None

    def deciders_by(self, deadline: float) -> Set[ProcessId]:
        """Processes whose first decision happened at or before *deadline*."""
        return {
            pid
            for pid, record in self._decisions.items()
            if record.time <= deadline
        }

    def is_two_step_for(self, pid: ProcessId, delta: float) -> bool:
        """Definition 3: did *pid* decide by time ``2 * delta``?"""
        time = self.decision_time(pid)
        return time is not None and time <= 2 * delta

    # ------------------------------------------------------------------
    # Crash and liveness queries.
    # ------------------------------------------------------------------

    @property
    def crashed(self) -> Set[ProcessId]:
        """Processes that crashed at any point in the run."""
        return self._crashed

    @property
    def correct(self) -> Set[ProcessId]:
        """Processes that never crashed."""
        return set(range(self.n)) - self._crashed

    # ------------------------------------------------------------------
    # Record projections.
    # ------------------------------------------------------------------

    def of_kind(self, kind: type) -> List[Record]:
        """All records that are instances of *kind*, in trace order."""
        return [record for record in self.records if isinstance(record, kind)]

    def sends(self) -> List[SendRecord]:
        return self.of_kind(SendRecord)  # type: ignore[return-value]

    def deliveries(self) -> List[DeliverRecord]:
        return self.of_kind(DeliverRecord)  # type: ignore[return-value]

    def message_count(self) -> int:
        """Total number of point-to-point messages handed to the network."""
        return len(self.sends())

    def messages_by_kind(self) -> Dict[str, int]:
        """Histogram of sent messages by message kind."""
        histogram: Dict[str, int] = {}
        for record in self.sends():
            histogram[record.message.kind] = histogram.get(record.message.kind, 0) + 1
        return histogram

    def steps_of(self, pids: Iterable[ProcessId]) -> List[Record]:
        """Records attributable to the given processes, in trace order.

        A record is attributed to the process that *acted*: the sender of a
        send, the receiver of a delivery, the decider, the crasher, the
        proposer, or the timer owner. This is the projection used by the
        indistinguishability checks of the Appendix B witnesses.
        """
        wanted = set(pids)
        projected: List[Record] = []
        for record in self.records:
            owner = _acting_process(record)
            if owner in wanted:
                projected.append(record)
        return projected

    def local_view(self, pid: ProcessId) -> List[Tuple[float, str]]:
        """What *pid* could observe: its own actions, normalized.

        Two runs are indistinguishable to ``pid`` iff its local views are
        equal. Times are excluded from the comparison payload (a process in
        the asynchronous model cannot read a global clock) but retained for
        diagnostics.
        """
        view: List[Tuple[float, str]] = []
        for record in self.records:
            if _acting_process(record) != pid:
                continue
            view.append((record.time, _normalize(record)))
        return view

    def views_equal(self, other: "Run", pids: Iterable[ProcessId]) -> bool:
        """Are the local views of all *pids* equal across two runs?"""
        for pid in pids:
            mine = [payload for _, payload in self.local_view(pid)]
            theirs = [payload for _, payload in other.local_view(pid)]
            if mine != theirs:
                return False
        return True

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------

    def format(self, limit: Optional[int] = None) -> str:
        """Multi-line human-readable rendering of the trace."""
        lines = []
        records = self.records if limit is None else self.records[:limit]
        for record in records:
            lines.append(_format_record(record))
        if limit is not None and len(self.records) > limit:
            lines.append(f"... ({len(self.records) - limit} more records)")
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same system size, inputs, and trace.

        Record dataclasses compare by value, so two runs are equal exactly
        when they describe the same execution — what the fuzzer's
        worker-count determinism guarantee is stated in terms of. Runs are
        mutable and therefore unhashable.
        """
        if not isinstance(other, Run):
            return NotImplemented
        return (
            self.n == other.n
            and self.proposals == other.proposals
            and self.records == other.records
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"<Run n={self.n} records={len(self.records)} "
            f"decided={len(self._decisions)} crashed={sorted(self._crashed)}>"
        )


def _acting_process(record: Record) -> Optional[ProcessId]:
    """The process whose local history contains *record* (see local_view)."""
    if isinstance(record, SendRecord):
        return record.sender
    if isinstance(record, DeliverRecord):
        return record.receiver
    if isinstance(record, DecideRecord):
        return record.pid
    if isinstance(record, CrashRecord):
        return record.pid
    if isinstance(record, ProposeRecord):
        return record.pid
    if isinstance(record, (TimerSetRecord, TimerFiredRecord)):
        return record.pid
    return None


def _normalize(record: Record) -> str:
    """Timestamp-free rendering used for indistinguishability comparison."""
    if isinstance(record, SendRecord):
        return f"send->{record.receiver}:{record.message.describe()}"
    if isinstance(record, DeliverRecord):
        return f"recv<-{record.sender}:{record.message.describe()}"
    if isinstance(record, DecideRecord):
        return f"decide:{record.value!r}"
    if isinstance(record, CrashRecord):
        return "crash"
    if isinstance(record, ProposeRecord):
        return f"propose:{record.value!r}"
    if isinstance(record, TimerSetRecord):
        return f"timer-set:{record.name}"
    if isinstance(record, TimerFiredRecord):
        return f"timer-fired:{record.name}"
    return repr(record)


def _format_record(record: Record) -> str:
    owner = _acting_process(record)
    return f"t={record.time:>8.3f}  p{owner}: {_normalize(record)}"
