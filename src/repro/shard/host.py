"""One consensus group per process: the group host and its handle.

:class:`~repro.shard.ShardedCluster` forks one *group host* per group.
A host runs that group's unchanged :class:`~repro.net.cluster.LocalCluster`
on its own ``asyncio.run`` loop, pinned to one CPU (:func:`_host_cpu`),
so G groups use G cores; no consensus message crosses groups, so
nothing else changes. The parent keeps one
control channel per host (a :func:`multiprocessing.Pipe`) and a
:class:`GroupHost` handle that answers, over that channel, the part of
the ``LocalCluster`` API the harness, the CLI and the tests use:

* ``n`` and ``addresses`` (pinned at start: a restarted node comes back
  on its port);
* ``nodes`` / ``survivors`` as :class:`NodeView`\\ s and
  ``survivor_replicas()`` as :class:`ReplicaView`\\ s — read-only
  snapshots of the host's objects;
* ``start``, ``stop``, ``crash``, ``kill``, ``restart`` and
  ``wait_logs_converged``, awaited without blocking the parent's loop.

The host is forked, not spawned: the process factories are closures
that do not pickle, and a fork skips re-importing the package. The
parent therefore holds no threads of its own at fork time (durable
nodes start their writer threads inside the host), and it never reads
a channel from another thread: synchronous calls block in
``Connection.poll(timeout)``, asynchronous ones poll and sleep.

Lifecycle: a host ignores SIGINT (the parent stops it), stops its group
and exits when its channel closes (so it cannot outlive a dead parent),
and is reaped by :meth:`GroupHost.stop` — join with a timeout, then
kill. A call to a host that is gone, or that does not answer in time,
raises :class:`GroupHostError` naming the group.
"""

from __future__ import annotations

import asyncio
import gc
import logging
import os
import signal
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import ReproError
from ..core.process import ProcessId
from ..net.cluster import LocalCluster
from ..net.transport import Address
from ..smr.log import SMRReplica

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

#: Seconds a handle waits for a query, a crash or a kill to be answered.
CALL_TIMEOUT = 30.0
#: Seconds a host gets to boot (or restart a node, recovery included),
#: and to stop and exit before it is killed.
BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 10.0
#: The id of the host's one unsolicited message: its start outcome.
_READY = 0

log = logging.getLogger("repro.shard.host")


class GroupHostError(ReproError):
    """A group host is gone, or did not answer within the call's timeout."""


# ----------------------------------------------------------------------
# Read-only views of a host's nodes and replicas.
# ----------------------------------------------------------------------


class NodeView:
    """One node of a hosted group: ``pid``, ``address`` and ``crashed``
    as they were when the view was taken; ``stats_snapshot()`` and
    ``wire_info()`` ask the host each time."""

    def __init__(
        self, host: "GroupHost", pid: ProcessId, address: Address, crashed: bool
    ) -> None:
        self._host = host
        self.pid = pid
        self.address = address
        self.crashed = crashed

    def stats_snapshot(self) -> Dict[str, Any]:
        return self._host._call("stats_snapshot", self.pid)

    def wire_info(self) -> Dict[str, Any]:
        return self._host._call("wire_info", self.pid)


class LogView:
    """A replica's applied command log. ``len()`` is one small request
    until the log has shipped; the first iteration or index ships the
    whole log once, and the view answers from that copy afterwards."""

    def __init__(self, host: "GroupHost", pid: ProcessId) -> None:
        self._host = host
        self._pid = pid
        self._entries: Optional[List[Any]] = None

    def _shipped(self) -> List[Any]:
        if self._entries is None:
            self._entries = self._host._call("log", self._pid)
        return self._entries

    def __len__(self) -> int:
        if self._entries is None:
            return self._host._call("log_len", self._pid)
        return len(self._entries)

    def __iter__(self):
        return iter(self._shipped())

    def __getitem__(self, index):
        return self._shipped()[index]


class StoreView:
    """A replica's KV store: ``log`` (a :class:`LogView`) and ``data``
    (shipped on first access)."""

    def __init__(self, host: "GroupHost", pid: ProcessId) -> None:
        self._host = host
        self._pid = pid
        self.log = LogView(host, pid)
        self._data: Optional[Dict[str, Any]] = None

    @property
    def data(self) -> Dict[str, Any]:
        if self._data is None:
            self._data = self._host._call("data", self._pid)
        return self._data


class ReplicaView:
    """One surviving :class:`~repro.smr.log.SMRReplica`: ``pid``,
    ``store`` and ``decided`` (shipped on first access)."""

    def __init__(self, host: "GroupHost", pid: ProcessId) -> None:
        self._host = host
        self.pid = pid
        self.store = StoreView(host, pid)
        self._decided: Optional[Dict[int, Any]] = None

    @property
    def decided(self) -> Dict[int, Any]:
        if self._decided is None:
            self._decided = self._host._call("decided", self.pid)
        return self._decided


# ----------------------------------------------------------------------
# The parent-side handle.
# ----------------------------------------------------------------------


class GroupHost:
    """Parent-side handle of one group's host process.

    *build* makes the group's :class:`LocalCluster`; it runs in the host,
    after the fork, so nothing it captures needs to pickle.
    """

    def __init__(
        self, group: int, n: int, build: Callable[[], LocalCluster]
    ) -> None:
        self.group = group
        self.n = n
        self._build = build
        self._process: Optional[BaseProcess] = None
        self._conn: Optional[Connection] = None
        self._next_id = _READY + 1
        self._replies: Dict[int, Tuple[bool, Any]] = {}
        self._addresses: List[Address] = []

    # -- lifecycle -----------------------------------------------------

    def launch(self, siblings: Sequence["GroupHost"] = ()) -> None:
        """Fork the host; it boots its group at once. The host closes
        the parent's ends of every sibling's channel it inherited, so
        each channel has one reader on each side and closes with it."""
        # Imported here, not with the module: a process that never forks
        # a host keeps the import set, and the heap, it had without one.
        import multiprocessing

        fork = multiprocessing.get_context("fork")
        parent_end, host_end = fork.Pipe()
        inherited = [s._conn for s in siblings if s._conn is not None]
        process = fork.Process(
            target=_host_main,
            args=(
                self._build,
                host_end,
                inherited + [parent_end],
                _host_cpu(self.group),
            ),
            name=f"repro-group-{self.group}",
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            parent_end.close()
            raise
        finally:
            host_end.close()
        self._process, self._conn = process, parent_end

    async def ready(self) -> None:
        """Wait for the launched host's boot. A host whose group failed
        to start is reaped, and its start error raised."""
        try:
            self._addresses = await self._wait_async(_READY, "start", BOOT_TIMEOUT)
        except BaseException:
            self._reap()
            raise

    async def start(self) -> "GroupHost":
        self.launch()
        await self.ready()
        return self

    async def stop(self) -> None:
        """Stop the group and reap its host, however the stop went."""
        if self._process is None:
            return
        try:
            await self._call_async("stop", timeout=STOP_TIMEOUT)
        except GroupHostError as exc:
            log.warning("%s; reaping it", exc)
        finally:
            self._reap()

    def _reap(self) -> None:
        process, conn = self._process, self._conn
        self._process = self._conn = None
        if conn is not None:
            conn.close()  # a host that missed "stop" exits on the EOF
        if process is None:
            return
        process.join(STOP_TIMEOUT)
        if process.is_alive():
            log.warning("group %d host did not exit; killing it", self.group)
            process.kill()
            process.join()

    @property
    def process_pid(self) -> Optional[int]:
        """The host's OS process id (``None`` when not running)."""
        return None if self._process is None else self._process.pid

    # -- the LocalCluster surface ---------------------------------------

    @property
    def addresses(self) -> List[Address]:
        return list(self._addresses)

    @property
    def nodes(self) -> List[NodeView]:
        return [NodeView(self, *entry) for entry in self._call("nodes")]

    @property
    def survivors(self) -> List[NodeView]:
        return [node for node in self.nodes if not node.crashed]

    def survivor_replicas(self) -> List[ReplicaView]:
        return [ReplicaView(self, pid) for pid in self._call("survivor_replicas")]

    async def crash(self, pid: ProcessId) -> None:
        await self._call_async("crash", pid)

    async def kill(self, pid: ProcessId) -> None:
        await self._call_async("kill", pid)

    async def restart(self, pid: ProcessId) -> NodeView:
        entry = await self._call_async("restart", pid, timeout=BOOT_TIMEOUT)
        return NodeView(self, *entry)

    async def wait_logs_converged(
        self, timeout: float, expected_commands: Optional[int] = None
    ) -> List[str]:
        return await self._call_async(
            "wait_logs_converged",
            timeout,
            expected_commands,
            timeout=timeout + CALL_TIMEOUT,
        )

    # -- the channel ---------------------------------------------------

    def _send(self, op: str, args: tuple) -> int:
        if self._conn is None:
            raise GroupHostError(f"group {self.group} host is not running")
        ident, self._next_id = self._next_id, self._next_id + 1
        try:
            self._conn.send((ident, op, args))
        except OSError as exc:
            raise self._gone() from exc
        return ident

    def _pump(self, timeout: float) -> bool:
        """File one answer under its id; False when none came in time."""
        if self._conn is None:
            raise GroupHostError(f"group {self.group} host is not running")
        try:
            if not self._conn.poll(timeout):
                return False
            ident, ok, value = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise self._gone() from exc
        self._replies[ident] = (ok, value)
        return True

    def _gone(self) -> GroupHostError:
        process = self._process
        if process is not None:
            process.join(0.5)
        code = None if process is None else process.exitcode
        return GroupHostError(
            f"group {self.group} host is gone (exit code {code})"
        )

    def _result(self, ident: int) -> Any:
        ok, value = self._replies.pop(ident)
        if not ok:
            raise value
        return value

    def _late(self, op: str, timeout: float) -> GroupHostError:
        return GroupHostError(
            f"group {self.group} host did not answer {op!r} within {timeout:g} s"
        )

    def _call(self, op: str, *args: Any) -> Any:
        """A synchronous query: blocks in ``poll`` until answered."""
        ident = self._send(op, args)
        deadline = time.monotonic() + CALL_TIMEOUT
        while ident not in self._replies:
            if not self._pump(max(0.0, deadline - time.monotonic())):
                raise self._late(op, CALL_TIMEOUT)
        return self._result(ident)

    async def _call_async(
        self, op: str, *args: Any, timeout: float = CALL_TIMEOUT
    ) -> Any:
        return await self._wait_async(self._send(op, args), op, timeout)

    async def _wait_async(self, ident: int, op: str, timeout: float) -> Any:
        deadline = time.monotonic() + timeout
        pause = 0.0005
        while ident not in self._replies:
            if self._pump(0):
                continue
            if time.monotonic() > deadline:
                raise self._late(op, timeout)
            await asyncio.sleep(pause)
            pause = min(2 * pause, 0.02)
        return self._result(ident)


# ----------------------------------------------------------------------
# The host process.
# ----------------------------------------------------------------------


def _host_cpu(group: int) -> Optional[int]:
    """The CPU group *group*'s host runs on: the groups take the
    caller's CPUs in turn. ``None`` (no pinning) with one CPU, or where
    the platform has no affinity call."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[group % len(cpus)] if len(cpus) > 1 else None


def _host_main(
    build: Callable[[], LocalCluster],
    conn: Connection,
    inherited: List[Connection],
    cpu: Optional[int],
) -> None:
    # Pinned: hosts and clients wake one another through sockets, and the
    # scheduler then keeps placing the woken host beside its waker, so
    # unpinned hosts often share one CPU while another stands idle.
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The parent's running loop and signal wake-up fd came along in the
    # fork; this process starts its own loop and takes no signals there.
    signal.set_wakeup_fd(-1)
    asyncio._set_running_loop(None)
    # Everything inherited is the parent's: keep the collector off it, so
    # collections here neither walk nor copy the parent's heap.
    gc.freeze()
    for other in inherited:
        other.close()
    asyncio.run(_serve(build, conn))


def _answer(conn: Connection, ident: int, ok: bool, value: Any) -> None:
    try:
        conn.send((ident, ok, value))
    except OSError:
        pass  # the parent is gone; the EOF that follows stops the host
    except Exception as exc:  # the value did not pickle
        conn.send((ident, False, GroupHostError(f"unsendable answer: {exc!r}")))


def _node_entry(cluster: LocalCluster, pid: ProcessId) -> tuple:
    node = cluster.nodes[pid]
    return (node.pid, node.address, node.crashed)


async def _serve(build: Callable[[], LocalCluster], conn: Connection) -> None:
    loop = asyncio.get_running_loop()
    try:
        cluster = build()
        await cluster.start()
    except Exception as exc:
        _answer(conn, _READY, False, exc)
        return
    _answer(conn, _READY, True, cluster.addresses)

    async def restart(pid: ProcessId) -> tuple:
        await cluster.restart(pid)
        return _node_entry(cluster, pid)

    def replica(pid: ProcessId) -> SMRReplica:
        # Views are made from survivor_replicas(), which checked the type.
        return cluster.nodes[pid].process

    queries: Dict[str, Callable[..., Any]] = {
        "nodes": lambda: [_node_entry(cluster, n.pid) for n in cluster.nodes],
        "stats_snapshot": lambda pid: cluster.nodes[pid].stats_snapshot(),
        "wire_info": lambda pid: cluster.nodes[pid].wire_info(),
        "survivor_replicas": lambda: [r.pid for r in cluster.survivor_replicas()],
        "decided": lambda pid: replica(pid).decided,
        "log_len": lambda pid: len(replica(pid).store.log),
        "log": lambda pid: replica(pid).store.log,
        "data": lambda pid: replica(pid).store.data,
    }
    actions: Dict[str, Callable[..., Any]] = {
        "crash": cluster.crash,
        "kill": cluster.kill,
        "restart": restart,
        "wait_logs_converged": cluster.wait_logs_converged,
        "stop": cluster.stop,
    }
    closed = loop.create_future()
    running = set()

    async def act(ident: int, op: str, args: tuple) -> None:
        try:
            result = await actions[op](*args)
        except Exception as exc:
            _answer(conn, ident, False, exc)
        else:
            _answer(conn, ident, True, result)
        if op == "stop" and not closed.done():
            closed.set_result(None)

    def on_request() -> None:
        try:
            ident, op, args = conn.recv()
        except (EOFError, OSError):
            # The parent closed the channel, or died: stop with it.
            loop.remove_reader(conn.fileno())
            if not closed.done():
                closed.set_result("orphaned")
            return
        if op in actions:
            task = loop.create_task(act(ident, op, args))
            running.add(task)
            task.add_done_callback(running.discard)
            return
        try:
            _answer(conn, ident, True, queries[op](*args))
        except Exception as exc:
            _answer(conn, ident, False, exc)

    loop.add_reader(conn.fileno(), on_request)
    try:
        if await closed == "orphaned":
            await cluster.stop()
    finally:
        loop.remove_reader(conn.fileno())
        conn.close()


__all__ = [
    "GroupHost",
    "GroupHostError",
    "LogView",
    "NodeView",
    "ReplicaView",
    "StoreView",
]
