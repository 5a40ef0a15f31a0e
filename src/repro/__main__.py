"""Command-line entry point: regenerate the paper's experiments.

Usage::

    python -m repro list                 # what can be run
    python -m repro bounds               # E1 — the bounds table
    python -m repro witness task 2 2     # Appendix B.1 below Theorem 5
    python -m repro witness object 3 3   # Appendix B.2 below Theorem 6
    python -m repro experiment e5        # any of e1..e10
    python -m repro experiment e5 --json # machine-readable records
    python -m repro fuzz --workers 4     # adversarial schedule fuzzing
    python -m repro explore --workers 2  # exhaustive safety exploration
    python -m repro report --quick       # the full markdown reproduction report
    python -m repro cluster --n 3        # boot a live KV cluster (asyncio TCP)
    python -m repro cluster --groups 4   # sharded: 4 consensus groups
    python -m repro loadgen --peers ...  # drive a live cluster, report latency
    python -m repro stats --peers ...    # scrape + merge a cluster's metrics
    python -m repro top --peers ...      # live refreshing per-node dashboard
    python -m repro recover --data-dir D # inspect WAL/snapshot state on disk
    python -m repro all                  # everything (a few minutes)
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, Field, dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Tuple, get_args, get_type_hints

from .analysis.report import EXPERIMENTS
from .bounds import object_lower_bound_witness, task_lower_bound_witness
from .core.errors import ConfigurationError


def _emit_json(payload: object) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))


class _UsageError(Exception):
    """Bad command-line input: :func:`main` prints it and exits 2, as it
    does a :class:`ConfigurationError` the library raises for one."""


def _peer_groups(peers: str) -> Dict[int, List[Tuple[str, int]]]:
    """``--peers`` of stats, loadgen and top as ``{group: addresses}``:
    ``;`` separates groups, and a list without one is group 0."""
    from .net.client import ClientError
    from .shard import parse_group_addresses

    try:
        return parse_group_addresses(peers)
    except ClientError as exc:
        raise _UsageError(f"--peers: {exc}")


def _cmd_list(_: argparse.Namespace) -> int:
    print("experiments:", ", ".join(sorted(EXPERIMENTS)))
    print("witnesses:   witness task <f> <e> | witness object <f> <e>")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    key = args.name.lower()
    if key not in EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; try: {', '.join(sorted(EXPERIMENTS))}")
        return 2
    entry = EXPERIMENTS[key]
    computed = entry.compute()
    if args.json:
        _emit_json({"experiment": key, **entry.records(computed)})
    else:
        print(entry.render(computed))
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    if args.kind == "task":
        result = task_lower_bound_witness(args.f, args.e)
    else:
        result = object_lower_bound_witness(args.f, args.e)
    print(result.describe())
    return 0 if result.violation_found else 1


def _task_config(n: int, f: int, e: int):
    """Figure 1 task config; enforcement off below the bound.

    Probing below the Theorem 5 bound is exactly what the fuzz/explore
    subcommands are for, so instead of letting the factory reject the
    configuration we disable its guard and let the checkers report the
    (expected) violations.
    """
    from .bounds.formulas import min_processes_task
    from .protocols.twostep import TwoStepConfig

    if n >= min_processes_task(f, e):
        return None  # factory default: bound enforced
    print(
        f"note: n={n} is below the task bound "
        f"{min_processes_task(f, e)} — expecting violations"
    )
    return TwoStepConfig(f=f, e=e, enforce_bound=False)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .bounds.search import fuzz_safety
    from .protocols.twostep import twostep_task_factory

    proposals = {pid: pid % 3 for pid in range(args.n)}
    config = _task_config(args.n, args.f, args.e)
    result = fuzz_safety(
        lambda seed: twostep_task_factory(proposals, args.f, args.e, config=config),
        args.n,
        args.f,
        seeds=range(args.schedules),
        proposals=proposals,
        steps=args.steps,
        workers=args.workers,
    )
    print(
        f"fuzz: n={args.n} f={args.f} e={args.e} "
        f"schedules={result.schedules_run} violations={len(result.violating_seeds)}"
    )
    if result.metrics:
        print(f"metrics: {result.metrics.describe()}")
    if result.found_violation:
        print(f"first violating seed: {result.violating_seeds[0]}")
        for violation in result.first_violation or []:
            print(f"  {violation}")
    return 1 if result.found_violation else 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from .checks.explore import explore
    from .protocols.twostep import twostep_task_factory

    proposals = {pid: pid % 2 for pid in range(args.n)}
    config = _task_config(args.n, args.f, args.e)
    factory = twostep_task_factory(proposals, args.f, args.e, config=config)
    report = explore(
        factory,
        args.n,
        proposals=proposals,
        timer_fires=args.timer_fires,
        max_states=args.max_states,
        workers=args.workers,
    )
    print(
        f"explore: n={args.n} f={args.f} e={args.e} "
        f"states={report.states_visited} exhaustive={report.exhaustive} "
        f"safe={report.safe}"
    )
    if report.metrics:
        print(f"metrics: {report.metrics.describe()}")
    if not report.safe and report.violation:
        print(f"violation: {report.violation}")
    return 0 if report.safe else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import generate_report

    text = generate_report(quick=args.quick, workers=args.workers)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    for entry in EXPERIMENTS.values():
        print(entry.render(entry.compute()))
        print()
    return 0


def _option(
    default: Any = MISSING,
    *,
    help: str,
    least: Optional[int] = None,
    recorded: bool = False,
    **flag: Any,
) -> Any:
    """A settings field that is one ``--flag``: the field gives its name, type
    (``bool``: a switch) and default (none: required). *flag* holds argparse's
    other keywords, *least* the CLI's lower bound; *recorded* lists it in ``config()``."""
    metadata = {"flag": dict(flag, help=help), "least": least, "recorded": recorded}
    return field(default=default, metadata=metadata)


def _flag(spec: Field) -> str:
    return "--" + spec.name.replace("_", "-")


class _Settings:
    """Base of a subcommand's frozen settings: one field per flag."""

    def __post_init__(self) -> None:
        for spec in fields(self):
            least, value = spec.metadata["least"], getattr(self, spec.name)
            if least is not None and value < least:
                raise _UsageError(f"{_flag(spec)} must be >= {least}, got {value}")

    @classmethod
    def from_args(cls, args: argparse.Namespace):
        return cls(**{spec.name: getattr(args, spec.name) for spec in fields(cls)})

    @classmethod
    def add_to(cls, parser: argparse.ArgumentParser, run: Callable[..., int]) -> None:
        """Give *parser* one flag per field; it calls *run* on the settings."""
        parser.set_defaults(fn=lambda args: run(cls.from_args(args)))
        hints = get_type_hints(cls)
        for spec in fields(cls):
            flag = dict(spec.metadata["flag"], required=spec.default is MISSING)
            if spec.default is not MISSING:
                flag["default"] = spec.default
            hint = hints[spec.name]  # Optional[T] parses as T
            kind = next(t for t in (*get_args(hint), hint) if t is not type(None))
            flag.update({"action": "store_true"} if kind is bool else {"type": kind})
            parser.add_argument(_flag(spec), **flag)


@dataclass(frozen=True)
class ClusterSettings(_Settings):
    """``cluster``: boot a live KV cluster, or one node of it."""

    n: int = _option(3, help="replicas (default %(default)s)")
    groups: int = _option(
        1,
        help="consensus groups; >1 boots a sharded deployment (--n replicas per "
        "group, group 0 is the placement-map catalog; default %(default)s). Every "
        "other flag applies per group",
    )
    slots: int = _option(
        64, help="with --groups >1: hash slots in the placement map (default %(default)s)"
    )
    f: int = _option(1, help="crash budget (default %(default)s)")
    e: int = _option(1, help="fast-decision budget (default %(default)s)")
    delta: float = _option(0.1, help="Δ in real seconds (default %(default)s)")
    batch: int = _option(
        16, help="max commands per consensus slot (default %(default)s; 1 = no batching)"
    )
    window: int = _option(
        8, help="max concurrently open slots per proxy (default %(default)s; 1 = serial)"
    )
    base_port: int = _option(
        9400, help="first port; group g's node i listens on base+g*n+i (0 = ephemeral)"
    )
    duration: Optional[float] = _option(
        None, help="serve for this many seconds then exit (default: until Ctrl-C)"
    )
    node: Optional[int] = _option(
        None, help="run only this pid of a multi-process deployment (needs --peers)"
    )
    peers: Optional[str] = _option(None, help="host:port,... address book for --node mode")
    trace_sample: Optional[int] = _option(
        None, metavar="N",
        help="record causal per-command spans, self-sampling every Nth sealed slot "
        "(0 = adopt client/peer traces only; default: spans off entirely)",
    )
    timeseries: Optional[str] = _option(
        None, metavar="DIR",
        help="append one JSONL metrics row per node per second to DIR/node-<pid>.jsonl "
        "(DIR/group-<g>/node-<pid>.jsonl with several groups) while the cluster runs",
    )
    log_level: Optional[str] = _option(
        None, choices=["debug", "info", "warning", "error"],
        help="emit runtime logs (node id + pid prefixed) at this level",
    )
    data_dir: Optional[str] = _option(
        None, metavar="DIR",
        help="journal + snapshot each node under DIR/node-<pid>/ (DIR/group-<g>/"
        "node-<pid>/ with several groups) and recover from it on restart (default: "
        "in-memory, crash-stop)",
    )
    no_fsync: bool = _option(
        False,
        help="with --data-dir: skip fsync on WAL group commits (still writes through "
        "to the OS; survives process crash, not power loss)",
    )
    snapshot_every: int = _option(
        256,
        help="with --data-dir: snapshot + rotate the WAL every this many applied "
        "slots (default %(default)s)",
    )


def _cmd_cluster(settings: ClusterSettings) -> int:
    import asyncio

    from .net import ClusterStartError, KVService, LocalCluster, NodeServer
    from .net.client import parse_address_list
    from .net.netlog import configure_logging
    from .shard import ShardedCluster
    from .smr.log import smr_factory

    if settings.log_level is not None:
        configure_logging(settings.log_level)
    factory = smr_factory(
        settings.f, settings.e, delta=settings.delta, batch_size=settings.batch,
        window=settings.window,
    )
    # What every node takes, in --node mode and in process alike.
    node_options = dict(
        data_dir=settings.data_dir,
        fsync=not settings.no_fsync,
        snapshot_every=settings.snapshot_every,
        trace_sample=settings.trace_sample,
    )

    async def hold() -> None:
        """Serve for --duration seconds, or until Ctrl-C."""
        if settings.duration is None:
            await asyncio.Event().wait()
        else:
            await asyncio.sleep(settings.duration)

    async def run_one(addresses: List[Tuple[str, int]]) -> None:
        # One real node of a multi-process deployment: it journals to
        # <data-dir>/node-<pid>/ and recovers from it on the next start.
        pid, timeseries = settings.node, settings.timeseries
        host, port = addresses[pid]
        node = NodeServer(
            pid,
            len(addresses),
            factory,
            host=host,
            port=port,
            client_service=KVService(),
            timeseries_path=f"{timeseries}/node-{pid}.jsonl" if timeseries else None,
            **node_options,
        )
        try:
            await node.bind()
        except OSError as exc:
            await node.stop()
            raise ClusterStartError(f"node {pid} failed to start: {exc}") from exc
        print(f"node {pid} serving on {node.address[0]}:{node.address[1]}", flush=True)
        await node.launch(addresses)
        try:
            await hold()
        finally:
            await node.stop()

    async def run_in_process() -> None:
        # One group is a plain KV cluster on this event loop; G groups
        # shard the keyspace, each group in its own forked host process,
        # group 0 doubling as the placement-map catalog.
        options = dict(
            node_options,
            base_port=settings.base_port,
            timeseries_dir=settings.timeseries,
        )
        groups, n = settings.groups, settings.n
        cluster = (
            LocalCluster(n, factory, serve_clients=True, **options)
            if groups == 1
            else ShardedCluster(groups, n, factory, slots=settings.slots, **options)
        )
        await cluster.start()
        try:
            peers = ";".join(
                ",".join(f"{host}:{port}" for host, port in addresses)
                for _group, addresses in sorted(cluster.addresses_by_group.items())
            )
            print(f"cluster up: groups={groups} n={n} f={settings.f} e={settings.e}")
            print(f"peers: {peers}")
            print(f"drive it with: python -m repro loadgen --peers '{peers}'")
            print(f"inspect it with: python -m repro stats --peers '{peers}'")
            sys.stdout.flush()
            await hold()
        finally:
            await cluster.stop()

    if settings.node is None:
        run = run_in_process()
    elif settings.groups != 1:
        raise _UsageError(
            "--node runs one single-group process; it cannot combine with "
            "--groups (boot each group separately instead)"
        )
    elif not settings.peers:
        raise _UsageError("--node requires --peers host:port,... for the full address book")
    else:
        addresses = parse_address_list(settings.peers)
        if not 0 <= settings.node < len(addresses):
            raise _UsageError(
                f"--node {settings.node} is not a pid of the "
                f"{len(addresses)} --peers addresses"
            )
        run = run_one(addresses)
    try:
        asyncio.run(run)
    except KeyboardInterrupt:
        pass
    except ClusterStartError as exc:
        # One line naming the group (of G > 1) and the node, no traceback.
        print(exc)
        return 1
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import asyncio

    from .net.stats import describe_cluster_stats, scrape_cluster

    view = asyncio.run(scrape_cluster(_peer_groups(args.peers), timeout=args.timeout))
    if args.json:
        _emit_json(view)
    else:
        print(describe_cluster_stats(view))
        for pid in sorted(view["nodes"]):
            snapshot = view["nodes"][pid]
            if snapshot is None:
                print(f"node {pid}: unreachable")
                continue
            counters = snapshot.get("counters", {})
            wire = snapshot.get("wire") or {}
            wire_note = ""
            if wire:
                wire_note = (
                    f" registry={wire['registry_hash'][:8]}"
                    f" links out/in/client={wire['peer_links_out']}/"
                    f"{wire['peer_links_in']}/{wire['client_links']}"
                )
            print(
                f"node {pid}: fast={counters.get('consensus.decisions_fast', 0)} "
                f"slow={counters.get('consensus.decisions_slow', 0)} "
                f"learned={counters.get('consensus.decisions_learned', 0)} "
                f"timers set/fired/cancelled="
                f"{counters.get('timer.set', 0)}/"
                f"{counters.get('timer.fired', 0)}/"
                f"{counters.get('timer.cancel', 0)}"
                f"{wire_note}"
            )
    # A scrape that reached nobody is a failure; partial reach is not.
    return 0 if any(s is not None for s in view["nodes"].values()) else 1


def _parse_key_skew(value: Optional[str]) -> Optional[float]:
    """``zipf:<s>`` (or a bare exponent) → Zipf exponent, None = uniform."""
    if value is None:
        return None
    text = value[len("zipf:"):] if value.startswith("zipf:") else value
    try:
        return float(text)
    except ValueError:
        raise _UsageError(f"--key-skew expects zipf:<exponent>, got {value!r}")


@dataclass(frozen=True)
class LoadSettings(_Settings):
    """``loadgen``: drive a live cluster and report commit latency."""

    peers: str = _option(
        help="host:port,... of the cluster's nodes; separate per-group lists with "
        "';' to drive a sharded deployment",
    )
    clients: int = _option(
        4, least=1, recorded=True,
        help="concurrent load workers, each with its own connection to every group "
        "(default %(default)s)",
    )
    count: int = _option(100, recorded=True, help="total commands")
    key_skew: Optional[str] = _option(
        None, recorded=True, metavar="zipf:S",
        help="Zipf(S) key popularity instead of uniform (e.g. zipf:0.99)",
    )
    key_space: int = _option(
        32, least=1, recorded=True,
        help="distinct keys key-0..key-<N-1> in the workload's pool (default "
        "%(default)s, for one group or many)",
    )
    put_fraction: float = _option(0.7, recorded=True, help="fraction of puts")
    seed: int = _option(0, recorded=True, help="workload seed")
    timeout: float = _option(5.0, help="per-attempt reply timeout")
    pipeline: int = _option(
        1, least=1, recorded=True,
        help="outstanding commands per connection (default %(default)s = closed loop)",
    )
    pin_proxy: int = _option(
        0, recorded=True,
        help="proxy, within every group, that all pipelined workers target (default "
        "%(default)s, the Ω leader; -1 spreads workers round-robin; ignored when "
        "--pipeline 1, where each op keeps its workload-assigned proxy)",
    )
    stats: bool = _option(
        False,
        help="scrape every node's metrics after the run and merge them into the "
        "report (fast-path ratio, per-message counters)",
    )
    trace_sample: int = _option(
        0, least=0, recorded=True, metavar="N",
        help="stamp every Nth command with a trace id and report merged per-command "
        "critical paths (nodes must run with --trace-sample to record spans; 0 = off)",
    )
    json: bool = _option(False, help="emit machine-readable records")
    record: Optional[str] = _option(
        None, nargs="?", const="benchmarks/results/loadgen_last.json", metavar="PATH",
        help="persist the machine-readable run record to PATH (default %(const)s)",
    )

    def config(self) -> Dict[str, Any]:
        """The workload a run record names: the ``recorded`` fields."""
        return {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.metadata["recorded"]
        }


def _cmd_loadgen(settings: LoadSettings) -> int:
    import asyncio
    import pathlib
    import time

    from .net.client import ClientError
    from .net.loadgen import run_loadgen

    key_skew = _parse_key_skew(settings.key_skew)
    groups = _peer_groups(settings.peers)
    try:
        report = asyncio.run(
            run_loadgen(
                groups,
                clients=settings.clients,
                count=settings.count,
                keys=[f"key-{index}" for index in range(settings.key_space)],
                put_fraction=settings.put_fraction,
                seed=settings.seed,
                timeout=settings.timeout,
                pipeline=settings.pipeline,
                pin_proxy=None if settings.pin_proxy < 0 else settings.pin_proxy,
                collect_stats=settings.stats,
                trace_sample=settings.trace_sample,
                key_skew=key_skew,
            )
        )
    except ClientError as exc:
        # The workers record their own failures; what escapes is the
        # placement fetch from an unreachable catalog group.
        print(f"loadgen: {exc}")
        return 1
    payload = {
        "loadgen": report.to_record(),
        "errors": report.errors[:10],
        "config": settings.config(),
        "unix_time": round(time.time(), 3),
    }
    if settings.record is not None:
        from .storage import atomic_write_text

        # Temp-then-rename: a run killed mid-write never leaves a
        # truncated JSON record behind.
        path = atomic_write_text(
            pathlib.Path(settings.record),
            json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
        )
        print(f"run record written to {path}", file=sys.stderr)
    if settings.json:
        _emit_json(payload)
    else:
        print(report.describe())
        print(f"metrics: {report.metrics.describe()}")
        if report.cluster_stats is not None:
            from .net.stats import describe_cluster_stats

            print(f"cluster: {describe_cluster_stats(report.cluster_stats)}")
        if report.trace_paths is not None:
            breakdown = report.trace_breakdown or {}
            counts = breakdown.get("counts", {})
            print(
                f"traced: {len(report.trace_paths)} command(s) "
                + " ".join(f"{path}={n}" for path, n in sorted(counts.items()))
            )
            for path, stages in sorted(breakdown.get("paths", {}).items()):
                stage_bits = [
                    f"{stage} p50={info['p50'] * 1000:.1f}ms "
                    f"p99={info['p99'] * 1000:.1f}ms"
                    for stage, info in stages.items()
                ]
                print(f"  {path}: " + "; ".join(stage_bits))
    return 0 if report.failed == 0 else 1


def _cmd_top(args: argparse.Namespace) -> int:
    import asyncio

    from .net.top import run_top

    groups = _peer_groups(args.peers)
    try:
        asyncio.run(
            run_top(
                groups,
                interval=args.interval,
                iterations=args.iterations,
                clear=not args.no_clear,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    import pathlib

    from .net.codec import MessageCodec
    from .storage import inspect_data_dir

    root = pathlib.Path(args.data_dir)
    if not root.is_dir():
        print(f"no such data directory: {root}", file=sys.stderr)
        return 2
    rows = inspect_data_dir(root, MessageCodec())
    refused = 1 if any(row["problems"] for row in rows) else 0
    if args.json:
        _emit_json(rows)
        return refused
    if not rows:
        print(f"{root}: no node-<pid> directories found")
        return 1
    for row in rows:
        meta = row["meta"]
        bound = (
            f" (last bound {meta['host']}:{meta['port']})"
            if "host" in meta and "port" in meta
            else ""
        )
        print(f"{row['node']}{bound}:")
        stamp, build = row["registry"]["stamp"], row["registry"]["build"]
        stamp = "none" if stamp is None else stamp or "unreadable"
        print(f"  registry stamp: {stamp} (this build: {build})")
        archive = row["archive"]
        torn = " TORN TAIL (cut off on recovery)" if archive["torn_tail"] else ""
        print(
            f"  applied-log archive: {archive['entries']} command(s), "
            f"{archive['bytes']} valid byte(s){torn}"
        )
        for snap in row["snapshots"]:
            if "problem" in snap:
                stands_on = f"UNUSABLE ({snap['problem']})"
            else:
                stands_on = (
                    f"{snap['bytes']} byte(s), stands on {snap['log_entries']} "
                    f"archived command(s) / {snap['archive_bytes']} byte(s)"
                )
                if not snap["covered"]:
                    stands_on += " NOT COVERED BY THE ARCHIVE (skipped on recovery)"
            print(
                f"  snapshot upto slot {snap['upto']} "
                f"(replays WAL from segment {snap['wal_seq']}): {snap['file']}: "
                f"{stands_on}"
            )
        if not row["snapshots"]:
            print("  no snapshots (recovery replays the WAL from scratch)")
        for seg in row["segments"]:
            torn = " TORN TAIL (truncated on recovery)" if seg["torn_tail"] else ""
            if "problem" in seg:
                torn += f" UNREADABLE ({seg['problem']})"
            print(
                f"  {seg['file']}: {seg['records']} record(s), "
                f"{seg['bytes']} valid byte(s){torn}"
            )
        print(
            f"  WAL totals: {row['wal_decisions']} decision(s), "
            f"{row['wal_slot_states']} slot-state record(s), "
            f"max slot {row['max_slot_seen']}"
        )
        for problem in row["problems"]:
            print(f"  REFUSED BY RECOVERY: {problem}")
    return refused


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce 'Revisiting Lower Bounds for Two-Step Consensus' (PODC 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments").set_defaults(fn=_cmd_list)
    bounds = sub.add_parser("bounds", help="print the E1 bounds table")
    bounds.add_argument(
        "--json", action="store_true", help="emit machine-readable records"
    )
    bounds.set_defaults(fn=_cmd_experiment, name="e1")
    exp = sub.add_parser("experiment", help="run one experiment (e1..e10)")
    exp.add_argument("name")
    exp.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable records instead of tables",
    )
    exp.set_defaults(fn=_cmd_experiment)
    wit = sub.add_parser("witness", help="execute an Appendix B lower-bound witness")
    wit.add_argument("kind", choices=["task", "object"])
    wit.add_argument("f", type=int)
    wit.add_argument("e", type=int)
    wit.set_defaults(fn=_cmd_witness)
    sub.add_parser("all", help="run every experiment").set_defaults(fn=_cmd_all)
    fuzz = sub.add_parser(
        "fuzz", help="random adversarial schedule fuzzing at the task bound"
    )
    fuzz.add_argument("--n", type=int, default=6, help="processes (default 6)")
    fuzz.add_argument("--f", type=int, default=2, help="crash budget (default 2)")
    fuzz.add_argument("--e", type=int, default=2, help="fast-decision budget (default 2)")
    fuzz.add_argument("--schedules", type=int, default=150, help="seeds to run")
    fuzz.add_argument("--steps", type=int, default=400, help="max steps per schedule")
    fuzz.add_argument(
        "--workers", type=int, default=1, help="fork-pool shards (1 = serial)"
    )
    fuzz.set_defaults(fn=_cmd_fuzz)
    explore_parser = sub.add_parser(
        "explore", help="bounded exhaustive safety exploration"
    )
    explore_parser.add_argument("--n", type=int, default=3, help="processes (default 3)")
    explore_parser.add_argument(
        "--f", type=int, default=1, help="the protocol's f, passed to its factory"
    )
    explore_parser.add_argument("--e", type=int, default=1, help="fast-decision budget")
    explore_parser.add_argument(
        "--timer-fires", type=int, default=0, help="total timer expirations explored"
    )
    explore_parser.add_argument(
        "--max-states", type=int, default=200_000, help="state cap"
    )
    explore_parser.add_argument(
        "--workers", type=int, default=1, help="fork-pool shards (1 = serial)"
    )
    explore_parser.set_defaults(fn=_cmd_explore)
    rep = sub.add_parser(
        "report", help="generate the full markdown reproduction report"
    )
    rep.add_argument("--output", "-o", default=None, help="write to a file")
    rep.add_argument("--quick", action="store_true", help="trimmed trial counts")
    rep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fork-pool shards for the verification-engine section",
    )
    rep.set_defaults(fn=_cmd_report)
    cluster = sub.add_parser("cluster", help="boot a live KV cluster over asyncio TCP")
    ClusterSettings.add_to(cluster, _cmd_cluster)
    stats = sub.add_parser(
        "stats", help="scrape a live cluster's metrics and merge them"
    )
    stats.add_argument(
        "--peers",
        required=True,
        help="host:port,... of the cluster's nodes; separate per-group "
        "lists with ';' to scrape a sharded deployment",
    )
    stats.add_argument(
        "--timeout", type=float, default=5.0, help="per-node scrape timeout"
    )
    stats.add_argument(
        "--json", action="store_true", help="emit the full merged view as JSON"
    )
    stats.set_defaults(fn=_cmd_stats)
    loadgen = sub.add_parser("loadgen", help="drive a live cluster and report commit latency")
    LoadSettings.add_to(loadgen, _cmd_loadgen)
    top = sub.add_parser(
        "top", help="live refreshing per-node throughput/latency dashboard"
    )
    top.add_argument(
        "--peers",
        required=True,
        help="host:port,... of the cluster's nodes; separate per-group "
        "lists with ';' for a sharded deployment",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, help="seconds between scrapes"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="render this many frames then exit (default: until Ctrl-C)",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen (for logs/pipes)",
    )
    top.set_defaults(fn=_cmd_top)
    recover = sub.add_parser(
        "recover",
        help="inspect a cluster data directory: snapshots, WAL segments, torn tails",
    )
    recover.add_argument(
        "--data-dir", required=True, help="directory holding node-<pid>/ subdirectories"
    )
    recover.add_argument(
        "--json", action="store_true", help="emit the inspection as JSON"
    )
    recover.set_defaults(fn=_cmd_recover)
    return parser


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (_UsageError, ConfigurationError) as exc:
        print(exc)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
