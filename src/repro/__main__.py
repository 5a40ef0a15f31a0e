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
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .analysis import (
    e1_bounds_rows,
    e2_feasibility_rows,
    e2_fuzz_rows,
    e3_two_step_coverage_rows,
    e4_latency_vs_conflict_rows,
    e5_wan_rows,
    e6_recovery_rows,
    e7_message_rows,
    e8_epaxos_rows,
    e9_ablation_rows,
    e9_liveness_completion_demo,
    e10_smr_rows,
    render_records,
)
from .bounds import object_lower_bound_witness, task_lower_bound_witness
from .core.errors import ConfigurationError


@dataclass(frozen=True)
class _ExperimentSpec:
    """One experiment: named row-producing tables plus an optional note.

    Both output modes — the human tables and ``--json`` — are generated
    from the same spec, so they can never drift apart.
    """

    tables: Tuple[Tuple[str, Callable[[], List[dict]], int], ...]  # (title, rows, digits)
    note: Optional[Callable[[], str]] = None

    def render(self) -> str:
        parts = [
            render_records(rows_fn(), title=title, float_digits=digits)
            for title, rows_fn, digits in self.tables
        ]
        text = "\n".join(parts)
        if self.note is not None:
            text += f"\n{self.note()}"
        return text

    def records(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "tables": {title: rows_fn() for title, rows_fn, _ in self.tables}
        }
        if self.note is not None:
            payload["note"] = self.note()
        return payload


_SPECS: Dict[str, _ExperimentSpec] = {
    "e1": _ExperimentSpec(((("E1 — bounds"), lambda: e1_bounds_rows(5), 1),)),
    "e2": _ExperimentSpec(
        (
            ("E2 — feasibility", e2_feasibility_rows, 1),
            ("E2 — fuzzing arm (at the bound)", e2_fuzz_rows, 1),
        )
    ),
    "e3": _ExperimentSpec((("E3 — two-step coverage", e3_two_step_coverage_rows, 2),)),
    "e4": _ExperimentSpec(
        (("E4 — latency vs conflict", e4_latency_vs_conflict_rows, 2),)
    ),
    "e5": _ExperimentSpec((("E5 — WAN latency (ms)", e5_wan_rows, 1),)),
    "e6": _ExperimentSpec((("E6 — recovery", e6_recovery_rows, 1),)),
    "e7": _ExperimentSpec((("E7 — messages", e7_message_rows, 1),)),
    "e8": _ExperimentSpec((("E8 — EPaxos", e8_epaxos_rows, 2),)),
    "e9": _ExperimentSpec(
        (("E9 — ablations", e9_ablation_rows, 1),),
        note=lambda: f"liveness demo: {e9_liveness_completion_demo()}",
    ),
    "e10": _ExperimentSpec((("E10 — SMR on WAN (ms)", e10_smr_rows, 1),)),
}

_EXPERIMENTS: Dict[str, Callable[[], str]] = {
    key: spec.render for key, spec in _SPECS.items()
}


def _emit_json(payload: object) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))


class _UsageError(Exception):
    """Bad command-line input: :func:`main` prints it and exits 2, as it
    does a :class:`ConfigurationError` the library raises for one."""


def _peer_groups(args: argparse.Namespace) -> Dict[int, List[Tuple[str, int]]]:
    """``--peers`` of stats, loadgen and top as ``{group: addresses}``:
    ``;`` separates groups, and a list without one is group 0."""
    from .net.client import ClientError
    from .shard import parse_group_addresses

    try:
        return parse_group_addresses(args.peers)
    except ClientError as exc:
        raise _UsageError(f"--peers: {exc}")


def _cmd_list(_: argparse.Namespace) -> int:
    print("experiments:", ", ".join(sorted(_EXPERIMENTS)))
    print("witnesses:   witness task <f> <e> | witness object <f> <e>")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    if getattr(args, "json", False):
        _emit_json({"experiment": "e1", **_SPECS["e1"].records()})
    else:
        print(_EXPERIMENTS["e1"]())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    key = args.name.lower()
    if key not in _SPECS:
        print(f"unknown experiment {args.name!r}; try: {', '.join(sorted(_SPECS))}")
        return 2
    if args.json:
        _emit_json({"experiment": key, **_SPECS[key].records()})
    else:
        print(_EXPERIMENTS[key]())
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
    from .bounds.driver import fuzz_campaign
    from .omega import static_omega_factory
    from .protocols.twostep import twostep_task_factory

    proposals = {pid: pid % 3 for pid in range(args.n)}
    config = _task_config(args.n, args.f, args.e)
    result = fuzz_campaign(
        lambda seed: twostep_task_factory(
            proposals,
            args.f,
            args.e,
            omega_factory=static_omega_factory(0),
            config=config,
        ),
        args.n,
        args.f,
        schedules=args.schedules,
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
    from .omega import static_omega_factory
    from .protocols.twostep import twostep_task_factory

    proposals = {pid: pid % 2 for pid in range(args.n)}
    factory = twostep_task_factory(
        proposals,
        args.f,
        args.e,
        omega_factory=static_omega_factory(0),
        config=_task_config(args.n, args.f, args.e),
    )
    report = explore(
        factory,
        args.n,
        args.f,
        proposals=proposals,
        timer_fires=args.timer_fires,
        max_crashes=args.max_crashes,
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
    for key in sorted(_EXPERIMENTS, key=lambda k: int(k[1:])):
        print(_EXPERIMENTS[key]())
        print()
    return 0


def _smr_net_factory(
    f: int, e: int, delta: float, batch: int = 1, window: int = 1
):
    """SMR factory for live clusters: Figure 1 object variant, Ω = 0."""
    from .omega import static_omega_factory
    from .protocols.twostep import TwoStepConfig
    from .smr.log import smr_factory

    return smr_factory(
        f,
        e,
        delta=delta,
        omega_factory=static_omega_factory(0),
        consensus_config=TwoStepConfig(f=f, e=e, delta=delta, is_object=True),
        batch_size=batch,
        window=window,
    )


def _cmd_cluster(args: argparse.Namespace) -> int:
    import asyncio

    from .net import LocalCluster, start_node
    from .net.client import parse_address_list
    from .net.netlog import configure_logging
    from .net.node import KVService
    from .shard import ShardedCluster

    if args.log_level is not None:
        configure_logging(args.log_level)
    factory = _smr_net_factory(
        args.f, args.e, args.delta, batch=args.batch, window=args.window
    )

    async def hold() -> None:
        """Serve for --duration seconds, or until Ctrl-C."""
        if args.duration is None:
            await asyncio.Event().wait()
        else:
            await asyncio.sleep(args.duration)

    async def run_one(addresses: List[Tuple[str, int]]) -> None:
        # One real node of a multi-process deployment.
        node = start_node(
            args.node,
            addresses,
            factory,
            client_service=KVService(),
            data_dir=args.data_dir,
            fsync=not args.no_fsync,
            snapshot_every=args.snapshot_every,
            trace_sample=args.trace_sample,
            timeseries_path=(
                f"{args.timeseries}/node-{args.node}.jsonl"
                if args.timeseries
                else None
            ),
        )
        await node.bind()
        print(f"node {args.node} serving on {node.host}:{node.port}")
        await node.launch(addresses)
        try:
            await hold()
        finally:
            await node.stop()

    async def run_in_process() -> None:
        # Every node of every group on one event loop. One group is a
        # plain KV cluster; G groups shard the keyspace, group 0 doubling
        # as the placement-map catalog.
        options = dict(
            base_port=args.base_port,
            data_dir=args.data_dir,
            fsync=not args.no_fsync,
            snapshot_every=args.snapshot_every,
            trace_sample=args.trace_sample,
            timeseries_dir=args.timeseries,
        )
        cluster = (
            LocalCluster(args.n, factory, serve_clients=True, **options)
            if args.groups == 1
            else ShardedCluster(
                args.groups, args.n, factory, slots=args.slots, **options
            )
        )
        await cluster.start()
        try:
            peers = ";".join(
                ",".join(f"{host}:{port}" for host, port in addresses)
                for _group, addresses in sorted(cluster.addresses_by_group.items())
            )
            print(
                f"cluster up: groups={args.groups} n={args.n} "
                f"f={args.f} e={args.e}"
            )
            print(f"peers: {peers}")
            print(f"drive it with: python -m repro loadgen --peers '{peers}'")
            print(f"inspect it with: python -m repro stats --peers '{peers}'")
            sys.stdout.flush()
            await hold()
        finally:
            await cluster.stop()

    if args.node is None:
        run = run_in_process()
    else:
        if args.groups != 1:
            raise _UsageError(
                "--node runs one single-group process; it cannot combine with "
                "--groups (boot each group separately instead)"
            )
        if not args.peers:
            raise _UsageError(
                "--node requires --peers host:port,... for the full address book"
            )
        run = run_one(parse_address_list(args.peers))
    try:
        asyncio.run(run)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import asyncio

    from .net.stats import describe_cluster_stats, scrape_cluster

    view = asyncio.run(scrape_cluster(_peer_groups(args), timeout=args.timeout))
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


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import pathlib
    import time

    from .net.client import ClientError
    from .net.loadgen import run_loadgen

    for flag, value, least in (
        ("--clients", args.clients, 1),
        ("--pipeline", args.pipeline, 1),
        ("--trace-sample", args.trace_sample, 0),
        ("--key-space", args.key_space, 1),
    ):
        if value < least:
            raise _UsageError(f"{flag} must be >= {least}, got {value}")
    key_skew = _parse_key_skew(args.key_skew)
    groups = _peer_groups(args)
    try:
        report = asyncio.run(
            run_loadgen(
                groups,
                clients=args.clients,
                count=args.count,
                keys=[f"key-{index}" for index in range(args.key_space)],
                put_fraction=args.put_fraction,
                seed=args.seed,
                timeout=args.timeout,
                pipeline=args.pipeline,
                pin_proxy=None if args.pin_proxy < 0 else args.pin_proxy,
                collect_stats=args.stats,
                trace_sample=args.trace_sample,
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
        "config": {
            "clients": args.clients,
            "count": args.count,
            "key_skew": args.key_skew,
            "key_space": args.key_space,
            "pipeline": args.pipeline,
            "pin_proxy": args.pin_proxy,
            "put_fraction": args.put_fraction,
            "seed": args.seed,
            "trace_sample": args.trace_sample,
        },
        "unix_time": round(time.time(), 3),
    }
    if args.record is not None:
        from .storage import atomic_write_text

        # Temp-then-rename: a run killed mid-write never leaves a
        # truncated JSON record behind.
        path = atomic_write_text(
            pathlib.Path(args.record),
            json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n",
        )
        print(f"run record written to {path}", file=sys.stderr)
    if args.json:
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

    groups = _peer_groups(args)
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
    if args.json:
        _emit_json(rows)
        return 0
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
            print(
                f"  {seg['file']}: {seg['records']} record(s), "
                f"{seg['bytes']} valid byte(s){torn}"
            )
        print(
            f"  WAL totals: {row['wal_decisions']} decision(s), "
            f"{row['wal_slot_states']} slot-state record(s), "
            f"max slot {row['max_slot_seen']}"
        )
    return 0


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
    bounds.set_defaults(fn=_cmd_bounds)
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
    explore_parser.add_argument("--f", type=int, default=1, help="crash budget")
    explore_parser.add_argument("--e", type=int, default=1, help="fast-decision budget")
    explore_parser.add_argument(
        "--timer-fires", type=int, default=0, help="total timer expirations explored"
    )
    explore_parser.add_argument(
        "--max-crashes",
        type=int,
        default=None,
        help="crash actions per schedule (default: f)",
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
    cluster = sub.add_parser(
        "cluster", help="boot a live KV cluster over asyncio TCP"
    )
    cluster.add_argument("--n", type=int, default=3, help="replicas (default 3)")
    cluster.add_argument(
        "--groups",
        type=int,
        default=1,
        help="consensus groups; >1 boots a sharded deployment (--n replicas "
        "per group, group 0 is the placement-map catalog; default 1). Every "
        "other flag applies per group",
    )
    cluster.add_argument(
        "--slots",
        type=int,
        default=64,
        help="with --groups >1: hash slots in the placement map (default 64)",
    )
    cluster.add_argument("--f", type=int, default=1, help="crash budget (default 1)")
    cluster.add_argument(
        "--e", type=int, default=1, help="fast-decision budget (default 1)"
    )
    cluster.add_argument(
        "--delta", type=float, default=0.1, help="Δ in real seconds (default 0.1)"
    )
    cluster.add_argument(
        "--batch",
        type=int,
        default=16,
        help="max commands per consensus slot (default 16; 1 = no batching)",
    )
    cluster.add_argument(
        "--window",
        type=int,
        default=8,
        help="max concurrently open slots per proxy (default 8; 1 = serial)",
    )
    cluster.add_argument(
        "--base-port",
        type=int,
        default=9400,
        help="first port; group g's node i listens on base+g*n+i "
        "(0 = ephemeral)",
    )
    cluster.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for this many seconds then exit (default: until Ctrl-C)",
    )
    cluster.add_argument(
        "--node",
        type=int,
        default=None,
        help="run only this pid of a multi-process deployment (needs --peers)",
    )
    cluster.add_argument(
        "--peers",
        default=None,
        help="host:port,... address book for --node mode",
    )
    cluster.add_argument(
        "--trace-sample",
        type=int,
        default=None,
        metavar="N",
        help="record causal per-command spans, self-sampling every Nth "
        "sealed slot (0 = adopt client/peer traces only; default: spans "
        "off entirely)",
    )
    cluster.add_argument(
        "--timeseries",
        default=None,
        metavar="DIR",
        help="append one JSONL metrics row per node per second to "
        "DIR/node-<pid>.jsonl (DIR/group-<g>/node-<pid>.jsonl with "
        "several groups) while the cluster runs",
    )
    cluster.add_argument(
        "--log-level",
        default=None,
        choices=["debug", "info", "warning", "error"],
        help="emit runtime logs (node id + pid prefixed) at this level",
    )
    cluster.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="journal + snapshot each node under DIR/node-<pid>/ "
        "(DIR/group-<g>/node-<pid>/ with several groups) and "
        "recover from it on restart (default: in-memory, crash-stop)",
    )
    cluster.add_argument(
        "--no-fsync",
        action="store_true",
        help="with --data-dir: skip fsync on WAL group commits (still "
        "writes through to the OS; survives process crash, not power loss)",
    )
    cluster.add_argument(
        "--snapshot-every",
        type=int,
        default=256,
        help="with --data-dir: snapshot + rotate the WAL every this many "
        "applied slots (default 256)",
    )
    cluster.set_defaults(fn=_cmd_cluster)
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
    loadgen = sub.add_parser(
        "loadgen", help="drive a live cluster and report commit latency"
    )
    loadgen.add_argument(
        "--peers",
        required=True,
        help="host:port,... of the cluster's nodes; separate per-group "
        "lists with ';' to drive a sharded deployment",
    )
    loadgen.add_argument(
        "--clients",
        type=int,
        default=4,
        help="concurrent load workers, each with its own connection to "
        "every group (default 4)",
    )
    loadgen.add_argument("--count", type=int, default=100, help="total commands")
    loadgen.add_argument(
        "--key-skew",
        default=None,
        metavar="zipf:S",
        help="Zipf(S) key popularity instead of uniform (e.g. zipf:0.99)",
    )
    loadgen.add_argument(
        "--key-space",
        type=int,
        default=32,
        help="distinct keys key-0..key-<N-1> in the workload's pool "
        "(default 32, for one group or many)",
    )
    loadgen.add_argument(
        "--put-fraction", type=float, default=0.7, help="fraction of puts"
    )
    loadgen.add_argument("--seed", type=int, default=0, help="workload seed")
    loadgen.add_argument(
        "--timeout", type=float, default=5.0, help="per-attempt reply timeout"
    )
    loadgen.add_argument(
        "--pipeline",
        type=int,
        default=1,
        help="outstanding commands per connection (default 1 = closed loop)",
    )
    loadgen.add_argument(
        "--pin-proxy",
        type=int,
        default=0,
        help="proxy, within every group, that all pipelined workers target "
        "(default 0, the Ω leader; -1 spreads workers round-robin; ignored "
        "when --pipeline 1, where each op keeps its workload-assigned proxy)",
    )
    loadgen.add_argument(
        "--stats",
        action="store_true",
        help="scrape every node's metrics after the run and merge them "
        "into the report (fast-path ratio, per-message counters)",
    )
    loadgen.add_argument(
        "--trace-sample",
        type=int,
        default=0,
        metavar="N",
        help="stamp every Nth command with a trace id and report merged "
        "per-command critical paths (nodes must run with --trace-sample "
        "to record spans; 0 = off)",
    )
    loadgen.add_argument(
        "--json", action="store_true", help="emit machine-readable records"
    )
    loadgen.add_argument(
        "--record",
        nargs="?",
        const="benchmarks/results/loadgen_last.json",
        default=None,
        metavar="PATH",
        help="persist the machine-readable run record to PATH "
        "(default benchmarks/results/loadgen_last.json)",
    )
    loadgen.set_defaults(fn=_cmd_loadgen)
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
