"""One repeat: a fresh process that boots, warms up, measures, checks.

``run.py`` starts this file once per repeat with a JSON argument and
reads one JSON line back. Cluster, clients and generator share this
process's single event loop — the configuration the workloads are
defined on — so CPU and peak RSS of the process tree are the cost of
the whole deployment.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import resource
import shutil
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence

from loadgen import PlainCommand, command_stream, paced_schedule, take
from stats import counter_delta, histogram_delta_quantile, median, percentile
import checks
import sut  # the only module that imports the program under test
from tracer import GcWatch, Tracer
from workloads import (
    BUDGET,
    CLUSTER,
    PER_LAYER,
    RSS_MARK_COMMANDS,
    WORKLOADS_BY_NAME,
    WorkloadSpec,
)


def _cpu_seconds() -> float:
    """User + system CPU of this process and every reaped descendant."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mib() -> float:
    """High-water RSS of the process tree (Linux reports KiB)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


class Collector:
    """What the clients saw: every acknowledged result, and — while the
    timed window is open — each completion's latency."""

    def __init__(self) -> None:
        self.acked: Dict[str, Any] = {}
        self.timed = False
        self.timed_ids: List[str] = []
        self.latencies_s: List[float] = []
        self.bad_replies = 0
        self.rss_at_mark_mib: Optional[float] = None

    def on_reply(self, reply: Any, seconds: float) -> None:
        self.acked[reply.command_id] = reply.result
        if self.timed:
            self.timed_ids.append(reply.command_id)
            self.latencies_s.append(seconds)
            if reply.duplicate:
                # Committed, but the proxy could not return its result.
                self.bad_replies += 1
            if len(self.latencies_s) == RSS_MARK_COMMANDS:
                self.rss_at_mark_mib = _peak_rss_mib()


class Window:
    """Marks taken at the edges of the timed window."""

    def __init__(self) -> None:
        self.opened_at_epoch = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_mib = 0.0
        self.attempted = 0
        self.errors: List[str] = []
        self._start = 0.0
        self._cpu_start = 0.0

    def open(self, start: Optional[float] = None) -> float:
        self.opened_at_epoch = time.time()
        self._cpu_start = _cpu_seconds()
        self._start = time.perf_counter() if start is None else start
        return self._start

    def close(self) -> None:
        self.wall_s = time.perf_counter() - self._start
        self.cpu_s = _cpu_seconds() - self._cpu_start
        self.peak_rss_mib = _peak_rss_mib()


# ----------------------------------------------------------------------
# The two ways of driving load.
# ----------------------------------------------------------------------


async def _closed_window(
    drivers: Sequence[Any],
    streams: Sequence[Iterator[PlainCommand]],
    spec: WorkloadSpec,
    seconds: float,
    collector: Collector,
    window: Window,
    next_chunk: Any,
) -> None:
    """Every driver keeps its window full until the deadline, then the
    chunk in flight is cancelled; what was not answered by then is not
    part of the measurement."""

    async def drive(driver: Any, stream: Iterator[PlainCommand]) -> None:
        while collector.timed:
            await driver.run(next_chunk(stream, spec.chunk), collector.on_reply)

    collector.timed = True
    tasks = [
        asyncio.ensure_future(drive(driver, stream))
        for driver, stream in zip(drivers, streams)
    ]
    window.open()
    await asyncio.wait(tasks, timeout=seconds, return_when=asyncio.FIRST_EXCEPTION)
    window.close()
    collector.timed = False
    # On Python 3.11 ``wait_for`` (inside run_pipelined) swallows a
    # cancellation that lands in the same tick as a completed read, so
    # one cancel() is a request, not a guarantee: repeat until they end.
    pending = set(tasks)
    while pending:
        for task in pending:
            task.cancel()
        _done, pending = await asyncio.wait(pending, timeout=0.05)
    for outcome in await asyncio.gather(*tasks, return_exceptions=True):
        if isinstance(outcome, Exception):
            # A driver gave up (retry budget spent): everything it still
            # had pending was attempted and failed.
            window.errors.append(repr(outcome))
            window.attempted += len(getattr(outcome, "pending", ())) or 1
    window.attempted += len(collector.latencies_s)


async def _paced_window(
    deployment: sut.Deployment,
    spec: WorkloadSpec,
    seed: int,
    seconds: float,
    collector: Collector,
    window: Window,
    session: Optional["TraceSession"],
) -> List[float]:
    """Open loop: each connection writes on its seeded schedule whether
    or not earlier commands were answered. Returns sender lateness."""
    per_connection = spec.rate / spec.connections
    plans = []
    for index in range(spec.connections):
        connection = deployment.paced_connection(index)
        if session is not None:
            connection.send = session.as_loadgen(connection.send)
            connection.receive = session.as_loadgen(connection.receive)
        await connection.open()
        due = paced_schedule(seed, f"conn-{index}", per_connection, seconds)
        commands = sut.make_commands(
            take(command_stream(seed, f"conn-{index}"), len(due))
        )
        plans.append((connection, commands, due))
        window.attempted += len(commands)
    collector.timed = True
    # A short lead so every connection's sender is parked on its first
    # due time when the window opens.
    start = window.open(time.perf_counter() + 0.02)
    outcomes = await asyncio.gather(
        *(
            connection.run(commands, due, start, collector.on_reply)
            for connection, commands, due in plans
        ),
        return_exceptions=True,
    )
    # The window closes with the last reply (a few ms after the last due
    # instant when the cluster keeps up), so completed / wall is the
    # offered rate, and anything lower is backlog.
    window.close()
    collector.timed = False
    late: List[float] = []
    for (connection, _commands, _due), outcome in zip(plans, outcomes):
        if isinstance(outcome, BaseException):
            window.errors.append(repr(outcome))
        late.extend(connection.late_s)
        await connection.close()
    return late


# ----------------------------------------------------------------------
# Per-layer metrics of a traced repeat.
# ----------------------------------------------------------------------


class TraceSession:
    """What only a traced repeat carries: the wrappers and their tallies,
    the collector watch, and the ``stats_snapshot()``s at the window's
    two edges."""

    def __init__(self) -> None:
        self.obs_costs = sut.obs_unit_costs()  # before the wrappers go on
        self.tracer = Tracer()
        self.missing = sut.install_wrappers(self.tracer)
        self.gc = GcWatch()
        self.gc.start()
        self.before: Dict[str, Any] = {}
        self.after: Dict[str, Any] = {}
        self.tallies = self.tracer

    def as_loadgen(self, fn: Any) -> Any:
        """Charge one of the benchmark's own functions to ``loadgen``."""
        return self.tracer.wrap("loadgen", fn)

    def open(self, deployment: sut.Deployment) -> None:
        self.before = deployment.stats()
        self.tracer.reset()
        self.gc.reset()

    def close(self, deployment: sut.Deployment) -> None:
        self.gc.stop()
        # The checks run through the wrapped methods too, so the tallies
        # are copied at the window's edge.
        self.tallies = self.tracer.freeze()
        self.after = deployment.stats()


def layer_metrics(
    spec: WorkloadSpec,
    session: TraceSession,
    window: Window,
    latencies_ms: Sequence[float],
    late_s: Sequence[float],
    extras: Dict[str, Optional[float]],
) -> Dict[str, Optional[float]]:
    """Every ``PER_LAYER`` name except ``trace.overhead_frac`` (which
    needs the untraced repeat, so ``run.py`` adds it).

    Self times come from the wrappers; counts from the difference of the
    two merged ``stats_snapshot()``s around the window. The entries named
    in ``workloads.BUDGET`` are CPU microseconds per completed command;
    ``node.unattributed_us_per_cmd`` is defined as the remainder, so
    they sum to this repeat's ``cpu_us_per_cmd``. A layer that lost a
    wrap target reports ``None`` for what the wrappers measure.
    """
    tallies, missing = session.tallies, session.missing
    completions = len(latencies_ms)
    per_cmd = 1e6 / completions

    def self_us(layer: str) -> Optional[float]:
        return None if layer in missing else tallies.self_s.get(layer, 0.0) * per_cmd

    def tally(layer: str, table: Dict[str, Any], name: str) -> Optional[float]:
        return None if layer in missing else table.get(name, 0)

    def delta(prefix: str) -> int:
        return counter_delta(session.before, session.after, prefix)

    def delta_ms(histogram: str, q: float) -> Optional[float]:
        value = histogram_delta_quantile(session.before, session.after, histogram, q)
        return None if value is None else value * 1000.0

    def ratio(numerator: Optional[float], denominator: float) -> Optional[float]:
        return None if numerator is None or not denominator else numerator / denominator

    slots = delta("smr.slots_decided") / CLUSTER.n
    sent = delta("sent")
    fast, slow = delta("consensus.decisions_fast"), delta("consensus.decisions_slow")
    consensus_us = self_us("consensus")
    gauges = session.after.get("gauges", {})
    obs_calls = {name: tallies.counts.get(name, 0) for name in session.obs_costs}
    obs_seconds = sum(obs_calls[name] * cost for name, cost in session.obs_costs.items())

    metrics: Dict[str, Optional[float]] = {
        "loadgen.self_us_per_cmd": self_us("loadgen"),
        "loadgen.late_p99_ms": percentile(late_s, 0.99) * 1000.0 if late_s else None,
        "loadgen.client_p99_ms": percentile(latencies_ms, 0.99),
        "loadgen.client_max_ms": max(latencies_ms),
        "loadgen.over_50ms_frac": sum(1 for v in latencies_ms if v > 50.0) / completions,
        "codec.encode_us_per_cmd": self_us("codec.encode"),
        "codec.decode_us_per_cmd": self_us("codec.decode"),
        "codec.encode_calls_per_cmd": ratio(
            tally("codec.encode", tallies.calls, "codec.encode:encode"), completions
        ),
        "codec.decode_calls_per_cmd": ratio(
            tally("codec.decode", tallies.calls, "codec.decode:decode_payload"), completions
        ),
        "codec.bytes_per_cmd": ratio(
            tally("codec.decode", tallies.counts, "codec.bytes_fed"), completions
        ),
        "codec.msgs_per_feed": ratio(
            tally("codec.decode", tallies.counts, "codec.msgs_fed"),
            tallies.counts.get("codec.feeds", 0),
        ),
        "node.ctx_us_per_cmd": self_us("node.ctx"),
        "node.msgs_sent_per_cmd": sent / completions,
        "node.bytes_sent_per_cmd": delta("sent_bytes") / completions,
        "node.outbox_hwm": max(
            (v for name, v in gauges.items() if name.startswith("net.outbox_hwm.")),
            default=None,
        ),
        "node.queue_ms_p50": delta_ms("stage.queue_seconds", 0.5),
        "runtime.loop_lag_ms_p99": delta_ms("runtime.loop_lag_seconds", 0.99),
        "runtime.gc_pause_frac": session.gc.pause_s / window.wall_s,
        "runtime.gc_gen2_count": session.gc.gen2,
        "runtime.gc_max_pause_ms": session.gc.max_pause_s * 1000.0,
        "smr.handler_us_per_cmd": self_us("smr"),
        "smr.cmds_per_slot": ratio(completions, slots),
        "smr.slots_per_s": slots / window.wall_s,
        "smr.commit_ms_p50": delta_ms("smr.commit_seconds", 0.5),
        "smr.gap_repair_noops": delta("smr.gap_repair_noops"),
        "consensus.handler_us_per_slot": (
            None if consensus_us is None else ratio(consensus_us * completions, slots)
        ),
        "consensus.handler_us_per_cmd": consensus_us,
        "consensus.msgs_per_slot": ratio(sent, slots),
        "consensus.fast_path_ratio": ratio(fast, fast + slow),
        "consensus.timers_fired": delta("timer.fired"),
        "kvstore.apply_us_per_cmd": self_us("kvstore"),
        "kvstore.dup_suppressed": tally("kvstore", tallies.counts, "kvstore.duplicates"),
        "obs.calls_per_cmd": (
            None if "obs" in missing else sum(obs_calls.values()) / completions
        ),
        "obs.est_us_per_cmd": None if "obs" in missing else obs_seconds * per_cmd,
        "shard.route_us_per_cmd": self_us("shard"),
        "shard.redirects": extras.get("redirects"),
        "shard.group_imbalance": extras.get("group_imbalance"),
    }
    def wall(layer: str) -> Optional[Sequence[float]]:
        return None if layer in missing else tallies.wall.get(layer, [])

    commit_wall, snapshot_wall = wall("storage.commit"), wall("storage.snapshot")
    storage: Dict[str, Optional[float]] = {
        "storage.append_us_per_cmd": self_us("storage.append"),
        "storage.commit_cpu_us_per_cmd": self_us("storage.commit"),
        "storage.commit_ms_p50": median(commit_wall) * 1000.0 if commit_wall else None,
        "storage.commit_wall_frac": (
            None if commit_wall is None else sum(commit_wall) / window.wall_s
        ),
        "storage.fsyncs_per_cmd": delta("storage.wal_fsyncs") / completions,
        "storage.records_per_commit": ratio(
            delta("storage.wal_appends"), delta("storage.wal_commits")
        ),
        "storage.wal_bytes_per_cmd": delta("storage.wal_bytes") / completions,
        "storage.snapshot_us_per_cmd": self_us("storage.snapshot"),
        "storage.snapshot_s_total": None if snapshot_wall is None else sum(snapshot_wall),
        "storage.snapshots_written": delta("storage.snapshots_written"),
        "storage.recover_s": extras.get("recover_s"),
    }
    # A layer that does no work on this workload is null, not 0.
    if not spec.durable:
        storage = dict.fromkeys(storage)
    if spec.groups == 1:
        metrics["shard.route_us_per_cmd"] = None
    metrics.update(storage)
    attributed = sum(
        metrics[name] or 0.0 for name in BUDGET if name != "node.unattributed_us_per_cmd"
    )
    metrics["node.unattributed_us_per_cmd"] = window.cpu_s * per_cmd - attributed
    return metrics


# ----------------------------------------------------------------------
# The repeat.
# ----------------------------------------------------------------------


async def _check(
    deployment: sut.Deployment,
    spec: WorkloadSpec,
    collector: Collector,
    extras: Dict[str, Optional[float]],
    problems: List[str],
) -> List[str]:
    """Correctness, outside the timed window: appends what is wrong to
    *problems*, returns the ids of commands that got a wrong result."""
    await deployment.quiesce()
    logs = deployment.applied_logs()
    problems += checks.logs_identical(logs)
    problems += checks.applied_exactly_once(logs, collector.acked)
    wrong = checks.wrong_results(logs, collector.acked)
    if wrong:
        problems.append(f"{len(wrong)} wrong result(s), e.g. {wrong[0]}")
    if extras.get("redirects"):
        problems.append(f"{extras['redirects']:.0f} WrongShard redirect(s)")
    if spec.groups > 1:
        extras["group_imbalance"] = checks.group_imbalance(logs, collector.timed_ids)
    if spec.durable:
        puts = {
            command[3]
            for replicas in logs.values()
            for command in replicas[0]
            if command[0] == "put"
        }
        extras["recover_s"] = await deployment.kill_and_recover()
        problems += checks.acked_puts_recovered(
            deployment.applied_logs(),
            [command_id for command_id in collector.acked if command_id in puts],
        )
    return wrong


async def run_repeat(args: Dict[str, Any]) -> Dict[str, Any]:
    spec = WORKLOADS_BY_NAME[args["workload"]]
    seed, seconds = int(args["seed"]), float(args["seconds"])
    session = TraceSession() if args["traced"] else None

    data_dir: Optional[pathlib.Path] = None
    if spec.durable:
        data_dir = pathlib.Path(args["data_root"]) / f"{spec.name}-{seed}-{os.getpid()}"
        data_dir.mkdir(parents=True)

    def next_chunk(stream: Iterator[PlainCommand], count: int) -> List[Any]:
        return sut.make_commands(take(stream, count))

    collector = Collector()
    if session is not None:
        next_chunk = session.as_loadgen(next_chunk)
        collector.on_reply = session.as_loadgen(collector.on_reply)

    window = Window()
    extras: Dict[str, Optional[float]] = {}
    problems: List[str] = []
    late_s: List[float] = []
    deployment = sut.Deployment(spec, str(data_dir) if data_dir else None)
    await deployment.start()
    try:
        drivers = deployment.closed_loop_drivers(spec.outstanding)
        warm_each = int(args["warmup"]) // len(drivers)
        await asyncio.gather(
            *(
                driver.run(
                    next_chunk(command_stream(seed, f"warm-{index}"), warm_each),
                    collector.on_reply,
                )
                for index, driver in enumerate(drivers)
            )
        )
        if spec.mode == "paced":
            for driver in drivers:
                await driver.close()

        if session is not None:
            session.open(deployment)
        if spec.mode == "paced":
            late_s = await _paced_window(
                deployment, spec, seed, seconds, collector, window, session
            )
        else:
            streams = [
                command_stream(seed, f"conn-{index}") for index in range(len(drivers))
            ]
            await _closed_window(
                drivers, streams, spec, seconds, collector, window, next_chunk
            )
        if session is not None:
            session.close(deployment)

        if spec.groups > 1:
            extras["redirects"] = float(sum(driver.redirects() for driver in drivers))
        for driver in drivers:
            await driver.close()

        wrong = await _check(deployment, spec, collector, extras, problems)
    finally:
        await deployment.stop()
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)

    completions = len(collector.latencies_s)
    bad = len(set(wrong) & set(collector.timed_ids)) + collector.bad_replies
    failed = window.attempted - completions + bad
    problems += window.errors
    if not completions:
        raise RuntimeError(f"{spec.name}: nothing completed; {problems}")
    latencies_ms = [value * 1000.0 for value in collector.latencies_s]
    end_to_end = {
        "throughput_cmds_s": (completions - bad) / window.wall_s,
        "client_p50_ms": median(latencies_ms),
        "cpu_us_per_cmd": window.cpu_s * 1e6 / completions,
        "peak_rss_mb": collector.rss_at_mark_mib or window.peak_rss_mib,
        "setup_s": window.opened_at_epoch - float(args["spawned_at"]),
    }
    per_layer = None
    if session is not None:
        per_layer = layer_metrics(spec, session, window, latencies_ms, late_s, extras)
        unknown = set(per_layer) ^ ({m.name for m in PER_LAYER} - {"trace.overhead_frac"})
        if unknown:
            raise RuntimeError(f"per-layer names out of step with workloads.py: {unknown}")
    return {
        "workload": spec.name,
        "seed": seed,
        "traced": bool(args["traced"]),
        "window_s": window.wall_s,
        "attempted": window.attempted,
        "completed": completions,
        "failed": failed,
        "failed_frac": failed / window.attempted,
        "correct": not problems and failed == 0,
        "problems": problems,
        "missing_layers": sorted(set(session.missing)) if session is not None else [],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def main(argv: Sequence[str]) -> int:
    args = json.loads(argv[1])
    result = asyncio.run(run_repeat(args))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
