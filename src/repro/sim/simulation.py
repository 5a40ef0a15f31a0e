"""The deterministic discrete-event simulator.

:class:`Simulation` executes a set of :class:`repro.core.process.Process`
state machines against a latency model and a crash plan, producing a
:class:`repro.core.runs.Run`. Determinism is total: the same factory,
latency model (same seed), crash plan, injections, and delivery policy
produce the identical trace, which the test suite asserts.

Scheduling semantics
--------------------

* Local computation is instantaneous (an activation runs to completion at
  one simulated instant) — clause (4) of Definition 2.
* At equal times: crashes, then start-ups, then message deliveries, then
  timers (see :mod:`repro.sim.events` for why).
* Same-instant deliveries to the same process are ordered by the optional
  *delivery_priority* policy, then FIFO by scheduling order.
* A crashed process receives no further activations; messages it sent
  earlier remain in flight (reliable links, crash-stop failures).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..core.errors import ConfigurationError, SchedulerError
from ..core.messages import Message
from ..core.process import CLIENT, Context, Process, ProcessFactory, ProcessId
from ..obs import (
    Observability,
    SpanRecorder,
    merge_decision_records,
    merge_snapshots,
    message_label,
)
from ..core.runs import (
    CrashRecord,
    DecideRecord,
    DeliverRecord,
    Run,
    SendRecord,
    TimerFiredRecord,
    TimerSetRecord,
)
from ..core.values import MaybeValue
from .events import (
    PRIORITY_CRASH,
    PRIORITY_DELIVERY,
    PRIORITY_START,
    PRIORITY_TIMER,
    CrashEvent,
    DeliveryEvent,
    DeliveryPriority,
    Event,
    EventQueue,
    StartEvent,
    TimerEvent,
)
from .failures import CrashPlan
from .latency import FixedLatency, LatencyModel

#: A stop predicate evaluated on the run after every handled event.
StopCondition = Callable[[Run], bool]


class _SimulationContext(Context):
    """Concrete :class:`Context` bound to one simulation activation."""

    def __init__(self, simulation: "Simulation", pid: ProcessId) -> None:
        self._simulation = simulation
        self._pid = pid

    @property
    def now(self) -> float:
        return self._simulation.time

    @property
    def pid(self) -> ProcessId:
        return self._pid

    @property
    def n(self) -> int:
        return self._simulation.n

    @property
    def obs(self) -> Observability:
        return self._simulation.obs[self._pid]

    def send(self, dst: ProcessId, message: Message) -> None:
        self._simulation._send(self._pid, dst, message)

    def set_timer(self, name: str, delay: float) -> None:
        self._simulation._set_timer(self._pid, name, delay)

    def cancel_timer(self, name: str) -> None:
        self._simulation._cancel_timer(self._pid, name)

    def decide(self, value: MaybeValue) -> None:
        self._simulation._decide(self._pid, value)


class Simulation:
    """Run *n* processes built by *factory* under a latency model.

    Parameters
    ----------
    factory:
        Called as ``factory(pid, n)`` for each pid; must return a fresh
        :class:`Process`.
    latency:
        A :class:`LatencyModel`; defaults to ``FixedLatency(1.0)``.
    crashes:
        A :class:`CrashPlan`; defaults to no crashes.
    proposals:
        Input-value metadata recorded on the resulting run (used by the
        validity checker). The factory is responsible for actually giving
        processes their inputs.
    delivery_priority:
        Optional policy ordering same-instant deliveries (see
        :mod:`repro.sim.events`).
    f:
        Optional resilience budget; when given, the crash plan is checked
        against it.
    """

    def __init__(
        self,
        factory: ProcessFactory,
        n: int,
        latency: Optional[LatencyModel] = None,
        crashes: Optional[CrashPlan] = None,
        proposals: Optional[Mapping[ProcessId, MaybeValue]] = None,
        delivery_priority: Optional[DeliveryPriority] = None,
        f: Optional[int] = None,
        trace_sample: Optional[int] = None,
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"need at least one process, got n={n}")
        self.n = n
        self.latency = latency if latency is not None else FixedLatency(1.0)
        self.crash_plan = crashes if crashes is not None else CrashPlan.none()
        self.crash_plan.validate_for(n, f)
        self.delivery_priority = delivery_priority
        self.time = 0.0
        # One metrics registry per simulated node — the exact shape the
        # live runtime exposes, so fast-path ratios cross-check directly.
        # ``trace_sample`` arms a per-node span recorder exactly like the
        # live runtime's knob; span timestamps are virtual seconds, so the
        # recorded critical paths stay deterministic.
        self.obs: List[Observability] = [
            Observability(
                node=pid,
                spans=(
                    SpanRecorder(sample=trace_sample)
                    if trace_sample is not None
                    else None
                ),
            )
            for pid in range(n)
        ]
        self.run_record = Run(n, dict(proposals or {}))
        self.processes: List[Process] = [factory(pid, n) for pid in range(n)]
        self._crashed: set = set()
        self._queue = EventQueue()
        self._timer_generation: Dict[Tuple[ProcessId, str], int] = {}
        self._timer_deadline: Dict[Tuple[ProcessId, str], float] = {}
        self._started = False
        self._events_handled = 0

        for pid, crash_time in self.crash_plan.crash_times.items():
            self._queue.push(crash_time, PRIORITY_CRASH, CrashEvent(pid))
        for pid in range(n):
            self._queue.push(0.0, PRIORITY_START, StartEvent(pid))

    # ------------------------------------------------------------------
    # External injections (clients, tests).
    # ------------------------------------------------------------------

    def inject(
        self,
        time: float,
        pid: ProcessId,
        message: Message,
        sender: ProcessId = CLIENT,
    ) -> None:
        """Schedule *message* for delivery to *pid* at the given time.

        Used for client requests (``propose`` invocations in the object
        formulation, SMR commands). Must be called before the event time is
        reached.
        """
        if time < self.time:
            raise SchedulerError(
                f"cannot inject at time {time}; simulation already at {self.time}"
            )
        self._queue.push(
            time,
            PRIORITY_DELIVERY,
            DeliveryEvent(sender=sender, receiver=pid, message=message, send_time=time),
            tiebreak=self._tiebreak(sender, pid, message),
        )

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        stop: Optional[StopCondition] = None,
        max_events: int = 2_000_000,
    ) -> Run:
        """Process events in order; return the run record.

        Stops when the queue is empty, when the next event lies strictly
        beyond *until*, or when *stop* returns ``True`` (evaluated after
        every handled event). ``max_events`` guards against protocols that
        generate work forever (heartbeat-based Ω does): exceeding it raises
        :class:`SchedulerError` so tests fail loudly instead of hanging.

        The clock only fast-forwards to *until* when the loop actually ran
        out of work before then (queue exhausted or next event beyond
        *until*). A ``stop``-condition exit leaves ``self.time`` at the
        last handled event, so a later ``inject()`` is stamped relative to
        the stop point rather than silently pushed to *until*.
        """
        stopped = False
        while self._queue:
            next_time = self._queue.peek_time()
            if until is not None and next_time is not None and next_time > until:
                break
            time, event = self._queue.pop()
            self.time = max(self.time, time)
            self._handle(event)
            self._events_handled += 1
            if self._events_handled > max_events:
                raise SchedulerError(
                    f"simulation exceeded {max_events} events; "
                    "use `until` for protocols with perpetual timers"
                )
            if stop is not None and stop(self.run_record):
                stopped = True
                break
        if until is not None and not stopped:
            self.time = max(self.time, until)
        return self.run_record

    def run_until_all_decide(self, until: Optional[float] = None) -> Run:
        """Run until every correct process decided."""

        def stop(run: Run) -> bool:
            return all(run.decision_time(pid) is not None for pid in run.correct)

        return self.run(until=until, stop=stop)

    # ------------------------------------------------------------------
    # Event handling.
    # ------------------------------------------------------------------

    def _handle(self, event: Event) -> None:
        if isinstance(event, CrashEvent):
            if event.pid not in self._crashed:
                self._crashed.add(event.pid)
                self.run_record.add(CrashRecord(time=self.time, pid=event.pid))
            return
        if isinstance(event, StartEvent):
            if event.pid in self._crashed:
                return
            process = self.processes[event.pid]
            process.on_start(_SimulationContext(self, event.pid))
            return
        if isinstance(event, DeliveryEvent):
            if event.receiver in self._crashed:
                return
            self.obs[event.receiver].registry.inc(
                f"recv.{message_label(event.message)}"
            )
            self.run_record.add(
                DeliverRecord(
                    time=self.time,
                    sender=event.sender,
                    receiver=event.receiver,
                    message=event.message,
                )
            )
            process = self.processes[event.receiver]
            process.on_message(
                _SimulationContext(self, event.receiver), event.sender, event.message
            )
            return
        if isinstance(event, TimerEvent):
            if event.pid in self._crashed:
                return
            key = (event.pid, event.name)
            if self._timer_generation.get(key, 0) != event.generation:
                return  # stale: re-armed or cancelled since scheduling
            self._timer_deadline.pop(key, None)
            self.obs[event.pid].registry.inc("timer.fired")
            self.run_record.add(
                TimerFiredRecord(time=self.time, pid=event.pid, name=event.name)
            )
            process = self.processes[event.pid]
            process.on_timer(_SimulationContext(self, event.pid), event.name)
            return
        raise SchedulerError(f"unknown event {event!r}")

    # ------------------------------------------------------------------
    # Context callbacks.
    # ------------------------------------------------------------------

    def _tiebreak(self, sender: ProcessId, receiver: ProcessId, message: Message) -> int:
        if self.delivery_priority is None:
            return 0
        return self.delivery_priority(sender, receiver, message)

    def _send(self, sender: ProcessId, receiver: ProcessId, message: Message) -> None:
        if not 0 <= receiver < self.n:
            raise SchedulerError(f"send to unknown process {receiver}")
        self.obs[sender].registry.inc(f"sent.{message_label(message)}")
        self.run_record.add(
            SendRecord(time=self.time, sender=sender, receiver=receiver, message=message)
        )
        delivery = self.latency.validate(
            self.latency.delivery_time(sender, receiver, self.time), self.time
        )
        self._queue.push(
            delivery,
            PRIORITY_DELIVERY,
            DeliveryEvent(
                sender=sender, receiver=receiver, message=message, send_time=self.time
            ),
            tiebreak=self._tiebreak(sender, receiver, message),
        )

    def _set_timer(self, pid: ProcessId, name: str, delay: float) -> None:
        if delay < 0:
            raise SchedulerError(f"timer delay must be non-negative, got {delay}")
        key = (pid, name)
        self.obs[pid].registry.inc("timer.set")
        generation = self._timer_generation.get(key, 0) + 1
        self._timer_generation[key] = generation
        deadline = self.time + delay
        self._timer_deadline[key] = deadline
        self.run_record.add(
            TimerSetRecord(time=self.time, pid=pid, name=name, deadline=deadline)
        )
        self._queue.push(deadline, PRIORITY_TIMER, TimerEvent(pid, name, generation))

    def _cancel_timer(self, pid: ProcessId, name: str) -> None:
        key = (pid, name)
        self.obs[pid].registry.inc("timer.cancel")
        if key in self._timer_generation:
            self._timer_generation[key] += 1
            self._timer_deadline.pop(key, None)

    def _decide(self, pid: ProcessId, value: MaybeValue) -> None:
        self.run_record.add(DecideRecord(time=self.time, pid=pid, value=value))

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------

    def node_snapshot(self, pid: ProcessId) -> dict:
        """One node's metrics snapshot, in the live runtime's exact shape.

        Includes per-slot decision records when the process exposes them
        (the SMR replica does, via ``decision_records()``), so a seeded
        simulation and a live cluster run can be compared slot by slot.
        """
        snapshot = self.obs[pid].snapshot()
        records = getattr(self.processes[pid], "decision_records", None)
        if callable(records):
            snapshot["decisions"] = records()
        return snapshot

    def span_events(self) -> Dict[ProcessId, List[dict]]:
        """Per-node recorded span events (empty unless ``trace_sample``).

        Feed the result straight into
        :func:`repro.obs.merge_span_events` /
        :func:`repro.obs.critical_paths` — timestamps are virtual
        seconds, so the same seed always yields the same paths.
        """
        return {
            pid: list(obs.spans.events())
            for pid, obs in enumerate(self.obs)
            if obs.spans.enabled and len(obs.spans)
        }

    def stats(self) -> dict:
        """Cluster-wide merged view: counters, gauges, histograms, slots.

        Mirrors what ``repro stats`` / ``loadgen --stats`` assemble from
        live :class:`~repro.net.wire.StatsReply` messages, which is what
        lets the E3/E4 benchmarks cross-check the simulated fast-path
        ratio against a live cluster's.
        """
        per_node = {pid: self.node_snapshot(pid) for pid in range(self.n)}
        merged = merge_snapshots(per_node.values())
        decisions = merge_decision_records(
            {pid: snap.get("decisions", ()) for pid, snap in per_node.items()}
        )
        return {
            "nodes": per_node,
            "merged": merged,
            "decisions": decisions,
            "fast_path_ratio": decisions["fast_path_ratio"],
        }
