"""Bounded exhaustive state-space exploration (a miniature model checker).

Random schedules (``repro.bounds.search``) and hypothesis-driven schedules
(the property tests) sample the adversary; this module *enumerates* it:
starting from the initial configuration it explores every reachable state
under all interleavings of

* delivering any in-flight message, and
* firing any armed timer (asynchrony lets a timer fire at any moment),

checking Agreement and Validity in every state. States are canonicalized
(process snapshots with order-insensitive collections, the in-flight
message multiset, armed timer names) so the search visits each distinct
global state once.

There is no crash move. In the crash-stop model a crash only takes
actions away: the crashed process's messages and timers are dropped and
it is never activated again, so every local history of a schedule with
a crash is the local history of the same schedule without it, where the
process is merely slow. Safety verdicts therefore need only deliveries
and timer fires.

Canonicalization is the dominant cost of an exhaustive proof, so it is
engineered: snapshots are rendered into interned structural tuples (no
recursive ``repr``), each process's rendering is memoized and invalidated
only when that process is activated (a delivery or timer fire touches
exactly one process, so ``n - 1`` renderings are reused per child), and
message descriptions are cached per message object (messages are frozen
and endlessly re-enqueued). See :class:`_SignatureEngine`.

Exhaustiveness requires finite state spaces, so two bounds apply:

* ``ballot_bound`` prunes states where any process advanced past a given
  ballot — the protocols generate unboundedly many ballots, but safety
  violations, if any, manifest within the first few (the Appendix B
  violations need exactly one slow ballot);
* ``max_states`` aborts gracefully (reported as non-exhaustive) if the
  space is larger than the caller budgeted.

Within those bounds a clean report is a *proof* of safety for the given
configuration, not a statistical claim — the strongest form of evidence
this library offers below a paper proof.

There is one search path at any worker count: the root's branches are
split round-robin into ``workers`` shards (:func:`_explore_shard`), run
by :func:`repro.verify.run_shards` — a forked pool above one worker, and
``workers=1`` is the same shard code, in-process. Every shard counts the
root inside its own state cap and the merge counts it once, so one
worker reads exactly the single-search figures. Sharded search is
equally sound (every schedule is still covered) but shards do not share
visited sets, so states common to several root branches are re-explored;
``states_visited`` then counts work performed rather than distinct
states.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.errors import SchedulerError
from ..core.messages import Message
from ..core.process import CLIENT, Context, Process, ProcessFactory, ProcessId
from ..core.values import MaybeValue, is_bottom
from ..verify.metrics import MetricsRecorder, VerificationMetrics
from ..verify.runner import run_shards

#: Leaf types rendered as themselves (hashable, comparable within a type).
_LEAF_TYPES = (int, float, str, bool, bytes)


def _safe_sorted(items: list) -> list:
    """Deterministic order for possibly type-mixed canonical values."""
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=repr)


class _SignatureEngine:
    """Structural-hash canonicalization with interning and memo caches.

    One engine serves one exploration (caches must not outlive the run:
    message objects are only guaranteed alive while some world references
    them). All methods are pure given the engine's caches.
    """

    def __init__(self) -> None:
        # Interning canonical process snapshots shares the (heavily
        # repeated) tuples between signatures: set lookups then usually
        # short-circuit on identity instead of deep equality.
        self._intern: Dict[object, object] = {}
        self._describe: Dict[Message, str] = {}

    def canonical(self, value: object) -> object:
        """Order-insensitive, hashable rendering of protocol state.

        Dicts and sets are tagged so ``{1: 2}``, ``{(1, 2)}`` and
        ``[(1, 2)]`` cannot collide into the same tuple.
        """
        kind = type(value)
        if kind in _LEAF_TYPES or value is None:
            return value
        if isinstance(value, Message):
            return self.describe(value)
        if isinstance(value, dict):
            return (
                "\x00d",
                *_safe_sorted(
                    [(self.canonical(k), self.canonical(v)) for k, v in value.items()]
                ),
            )
        if isinstance(value, (set, frozenset)):
            return ("\x00s", *_safe_sorted([self.canonical(v) for v in value]))
        if isinstance(value, (list, tuple)):
            return tuple(self.canonical(v) for v in value)
        return repr(value)

    def describe(self, message: Message) -> str:
        """``message.describe()`` memoized per (frozen, hashable) object."""
        try:
            cached = self._describe.get(message)
        except TypeError:  # unhashable payload: skip the cache
            return message.describe()
        if cached is None:
            cached = message.describe()
            self._describe[message] = cached
        return cached

    def process_sig(self, process: Process) -> object:
        # Protocols may expose ``sig_key()``: a pre-hashable structural
        # signature equivalent to ``snapshot()`` but built without dicts
        # or repr, skipping canonicalization entirely on the hot path.
        fast = getattr(process, "sig_key", None)
        sig = fast() if fast is not None else self.canonical(process.snapshot())
        return self._intern.setdefault(sig, sig)


class _World:
    """One global state: processes + in-flight messages + timers.

    Worlds share process objects copy-on-write: :meth:`fork` copies only
    the list, and the caller clones exactly the process it is about to
    activate (:meth:`activate_copy`). Pending entries carry their
    precomputed signature key ``(sender, receiver, describe)`` so
    :meth:`signature` only sorts.
    """

    def __init__(self, processes: List[Process], engine: _SignatureEngine) -> None:
        self.processes = processes
        self.engine = engine
        # (sender, receiver, message, key) — key = (sender, receiver, describe)
        self.pending: List[Tuple[ProcessId, ProcessId, Message, Tuple]] = []
        self.timers: Set[Tuple[ProcessId, str]] = set()
        self.decisions: Dict[ProcessId, MaybeValue] = {}
        self.timer_fires_left = 0  # expirations left, over all processes
        # Memoized canonical snapshot per process; ``None`` marks dirty.
        self.proc_sigs: List[Optional[object]] = [None] * len(processes)

    def fork(self) -> "_World":
        twin = _World.__new__(_World)
        twin.processes = list(self.processes)  # copy-on-write (see above)
        twin.engine = self.engine
        twin.pending = list(self.pending)  # message tuples are immutable
        twin.timers = set(self.timers)
        twin.decisions = dict(self.decisions)
        twin.timer_fires_left = self.timer_fires_left
        twin.proc_sigs = list(self.proc_sigs)
        return twin

    def activate_copy(self, pid: ProcessId) -> Process:
        """Replace *pid*'s (possibly shared) process with a private clone
        and mark its snapshot dirty; returns the clone, ready to activate."""
        process = self.processes[pid]
        clone = (
            process.clone() if hasattr(process, "clone") else copy.deepcopy(process)
        )
        self.processes[pid] = clone
        self.proc_sigs[pid] = None
        return clone

    def mark_dirty(self, pid: ProcessId) -> None:
        self.proc_sigs[pid] = None

    def signature(self) -> Tuple:
        engine = self.engine
        sigs = self.proc_sigs
        processes = self.processes
        for index in range(len(processes)):
            if sigs[index] is None:
                sigs[index] = engine.process_sig(processes[index])
        decisions = self.decisions
        if decisions:
            decision_sig = tuple(
                _safe_sorted(
                    [(p, engine.canonical(v)) for p, v in decisions.items()]
                )
            )
        else:
            decision_sig = ()
        return (
            tuple(sigs),
            tuple(sorted(entry[3] for entry in self.pending)),
            tuple(sorted(self.timers)),
            decision_sig,
            self.timer_fires_left,
        )


class _WorldContext(Context):
    def __init__(self, world: _World, pid: ProcessId) -> None:
        self._world = world
        self._pid = pid

    @property
    def now(self) -> float:
        return 0.0  # exploration is untimed; asynchrony erases the clock

    @property
    def pid(self) -> ProcessId:
        return self._pid

    @property
    def n(self) -> int:
        return len(self._world.processes)

    def send(self, dst: ProcessId, message: Message) -> None:
        world = self._world
        world.pending.append(
            (self._pid, dst, message, (self._pid, dst, world.engine.describe(message)))
        )

    def set_timer(self, name: str, delay: float) -> None:
        self._world.timers.add((self._pid, name))

    def cancel_timer(self, name: str) -> None:
        self._world.timers.discard((self._pid, name))

    def decide(self, value: MaybeValue) -> None:
        previous = self._world.decisions.get(self._pid)
        if previous is None:
            self._world.decisions[self._pid] = value


@dataclass(frozen=True)
class Action:
    """One adversary move; the ``detail`` renders the counterexample."""

    kind: str  # "deliver" | "fire"
    detail: str


@dataclass
class ExplorationReport:
    """Outcome of a bounded exhaustive exploration."""

    states_visited: int
    exhaustive: bool
    violation: Optional[str] = None
    counterexample: List[Action] = field(default_factory=list)
    metrics: Optional[VerificationMetrics] = field(default=None, compare=False)

    @property
    def safe(self) -> bool:
        return self.violation is None

    def describe(self) -> str:
        status = "SAFE" if self.safe else f"VIOLATION: {self.violation}"
        if not self.safe:
            scope = "stopped at first violation"
        elif self.exhaustive:
            scope = "exhaustive"
        else:
            scope = "bounded (state cap hit)"
        lines = [f"{status} — {self.states_visited} states, {scope}"]
        for action in self.counterexample:
            lines.append(f"  {action.kind}: {action.detail}")
        return "\n".join(lines)


@dataclass(frozen=True)
class _Search:
    """One exploration's inputs and bounds: all a shard needs to rebuild
    the root and search its share (see :func:`explore`)."""

    factory: ProcessFactory
    n: int
    allowed: Set[MaybeValue]
    ballot_bound: int
    max_states: int  # per shard, the root included
    timer_fires: int
    injections: Optional[Sequence[Tuple[ProcessId, Message]]]
    prefix: Optional[Sequence[Tuple[str, Tuple]]]
    workers: int


def _ballot_of(process: Process) -> int:
    return getattr(process, "bal", getattr(process, "ballot", 0))


def _apply_prefix_step(world: _World, step: Tuple[str, Tuple]) -> None:
    """Execute one scripted prefix step (see :func:`explore`)."""
    kind, payload = step
    if kind == "deliver":
        sender, receiver, message_kind = payload
        for index, (s, r, m, _key) in enumerate(world.pending):
            if (
                (sender is None or s == sender)
                and (receiver is None or r == receiver)
                and (message_kind is None or type(m).__name__ == message_kind)
            ):
                world.pending.pop(index)
                world.mark_dirty(r)
                world.processes[r].on_message(_WorldContext(world, r), s, m)
                return
        raise SchedulerError(f"prefix step matched no pending message: {step}")
    if kind == "fire":
        pid, name = payload
        if (pid, name) not in world.timers:
            raise SchedulerError(f"prefix step names unarmed timer: {step}")
        world.timers.discard((pid, name))
        world.mark_dirty(pid)
        world.processes[pid].on_timer(_WorldContext(world, pid), name)
        return
    raise SchedulerError(f"unknown prefix step kind {kind!r}")


def _build_root(search: _Search, engine: _SignatureEngine) -> _World:
    # Root activations mutate in place: the root is not shared with any
    # other world until the first fork.
    n = search.n
    root = _World([search.factory(pid, n) for pid in range(n)], engine)
    root.timer_fires_left = search.timer_fires
    for pid in range(n):
        root.processes[pid].on_start(_WorldContext(root, pid))
    for pid, message in search.injections or []:
        root.processes[pid].on_message(_WorldContext(root, pid), CLIENT, message)
    for step in search.prefix or []:
        _apply_prefix_step(root, step)
    return root


def _check_safety(
    world: _World, allowed: Set[MaybeValue]
) -> Optional[Tuple[str, str]]:
    """Agreement/Validity on one state; returns (property, detail) or None."""
    decided_values = {repr(v): v for v in world.decisions.values()}
    if len(decided_values) > 1:
        return ("agreement", f"agreement: decisions {sorted(decided_values)}")
    if allowed:
        for pid, value in world.decisions.items():
            if value not in allowed:
                return ("validity", f"validity: p{pid} decided {value!r}")
    return None


def _expand(world: _World) -> List[Tuple[_World, Action]]:
    """All successor states of *world*, in deterministic push order.

    Every enabled action branches. A per-process partial-order reduction
    was evaluated and removed: delivery order *to the same process* is
    semantically significant here (the recovery quorum freezes the first
    n-f 1B reports), and future messages to any process can always be
    generated by others, so cheap persistent sets are unsound — they
    steer the search away from exactly the reorderings the lower-bound
    violations live in. Exhaustiveness is paid for with small
    configurations instead.
    """
    children: List[Tuple[_World, Action]] = []

    seen_payloads = set()
    for index, (sender, receiver, message, key) in enumerate(world.pending):
        if key in seen_payloads:  # key = (sender, receiver, describe)
            continue
        seen_payloads.add(key)
        child = world.fork()
        child.pending.pop(index)
        child.activate_copy(receiver).on_message(
            _WorldContext(child, receiver), sender, message
        )
        children.append(
            (child, Action("deliver", f"p{sender}->p{receiver}: {key[2]}"))
        )

    if world.timer_fires_left > 0:
        for pid, name in sorted(world.timers):
            child = world.fork()
            child.timer_fires_left -= 1
            child.timers.discard((pid, name))
            child.activate_copy(pid).on_timer(_WorldContext(child, pid), name)
            children.append((child, Action("fire", f"p{pid}: {name}")))

    return children


def _explore_shard(search: _Search, index: int) -> ExplorationReport:
    """Shard *index* of ``search.workers``: the depth-first search from the
    root, keeping only the root branches at positions ``index``,
    ``index + workers``, ... of :func:`_expand`'s order.

    Every shard pops, checks and counts the root inside its own state cap.
    It marks every root branch visited, so a deeper state equal to another
    shard's branch is left to that shard; only the owner counts a branch's
    dedup check. Shards share no visited set below the root: states
    reachable from several root branches are re-explored.
    """
    recorder = MetricsRecorder("explore")
    root = _build_root(search, _SignatureEngine())
    allowed, ballot_bound = search.allowed, search.ballot_bound
    max_states, workers = search.max_states, search.workers
    # DFS stack: (world, action-trail). Deduplication happens at *push*
    # time (children whose signature was already seen are never stacked),
    # keeping the stack linear in the number of distinct states rather
    # than in the number of edges.
    visited: Set[Tuple] = {root.signature()}
    stack: List[Tuple[_World, Tuple[Action, ...]]] = [(root, ())]
    states = 0
    dedup_checks = 0
    dedup_hits = 0
    max_frontier = 0
    max_depth = 0
    exhaustive = True
    violation: Optional[str] = None
    counterexample: List[Action] = []
    while stack:
        world, trail = stack.pop()
        states += 1
        if len(trail) > max_depth:
            max_depth = len(trail)

        found = _check_safety(world, allowed)
        if found is not None:
            exhaustive, violation, counterexample = False, found[1], list(trail)
            break
        # The state cap is checked *after* the safety checks: the state
        # that hits the cap has been popped and must not escape unchecked
        # (nor be dropped from the count).
        if states > max_states:
            exhaustive = False
            break

        if any(_ballot_of(p) > ballot_bound for p in world.processes):
            continue  # ballot pruning

        for position, (child, action) in enumerate(_expand(world)):
            child_signature = child.signature()
            if not trail and position % workers != index:
                visited.add(child_signature)  # another shard's root branch
                continue
            dedup_checks += 1
            if child_signature in visited:
                dedup_hits += 1
                continue
            visited.add(child_signature)
            stack.append((child, trail + (action,)))
        if len(stack) > max_frontier:
            max_frontier = len(stack)

    recorder.units = states
    recorder.dedup_checks = dedup_checks
    recorder.dedup_hits = dedup_hits
    recorder.max_frontier = max_frontier
    recorder.max_depth = max_depth
    return ExplorationReport(
        states, exhaustive, violation, counterexample, metrics=recorder.finish()
    )


def explore(
    factory: ProcessFactory,
    n: int,
    proposals: Optional[Mapping[ProcessId, MaybeValue]] = None,
    injections: Optional[Sequence[Tuple[ProcessId, Message]]] = None,
    ballot_bound: int = 12,
    max_states: int = 200_000,
    timer_fires: int = 2,
    prefix: Optional[Sequence[Tuple[str, Tuple]]] = None,
    workers: int = 1,
) -> ExplorationReport:
    """Exhaustively explore all schedules; see the module docstring.

    *proposals* is validity metadata (allowed decision values);
    *injections* are client messages delivered up-front (the object
    formulation's ``propose`` calls). ``timer_fires`` bounds the
    *total* timer expirations the search adds to a schedule, over all
    processes (a *prefix*'s scripted fires are not counted) — each
    expiry can open a new ballot, and unbounded ballots mean an unbounded
    state space; safety violations surface within the first couple
    (Appendix B needs exactly one). ``workers`` shards the root's
    branches (a forked pool when above 1; ``max_states`` then applies
    per shard; see the module docstring for the accounting caveat).
    """
    allowed = {v for v in (proposals or {}).values() if not is_bottom(v)}
    allowed |= {
        getattr(message, "value")
        for _, message in (injections or [])
        if hasattr(message, "value")
    }
    search = _Search(
        factory=factory,
        n=n,
        allowed=allowed,
        ballot_bound=ballot_bound,
        max_states=max_states,
        timer_fires=timer_fires,
        injections=injections,
        prefix=prefix,
        workers=max(1, workers),
    )
    recorder = MetricsRecorder("explore")
    shards = run_shards(_explore_shard, search, search.workers)
    # Every shard counted the root; the campaign counts it once.
    recorder.units = sum(shard.states_visited for shard in shards) - len(shards) + 1
    metrics = recorder.merge([shard.metrics for shard in shards])
    # The lowest violating shard reports, so the verdict is the same run
    # to run; a safe campaign takes shard 0's empty counterexample.
    first = next((shard for shard in shards if not shard.safe), shards[0])
    return ExplorationReport(
        states_visited=recorder.units,
        exhaustive=all(shard.exhaustive for shard in shards),
        violation=first.violation,
        counterexample=first.counterexample,
        metrics=metrics,
    )
