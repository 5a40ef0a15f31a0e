"""End-to-end benchmark of the live replicated KV store — the one command.

    python3 benchmarks/e2e/run.py                       # full record: 4 workloads
    python3 benchmarks/e2e/run.py --runs 10             # ... as a set of 10 runs each
    python3 benchmarks/e2e/run.py --workload kv_paced --seed 7 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --smoke               # seconds, not minutes
    python3 benchmarks/e2e/run.py --compare A.json B.json

Every repeat is a fresh ``repeat.py`` subprocess (cluster + clients +
generator on one event loop). A value reported for a workload is the
median over its repeats; its spread is the quartile distance as a share
of that median. End-to-end metrics always come from untraced repeats;
``--trace 1`` adds traced repeats for the per-layer budget.

With ``--workload`` the last line of standard output is the result
object the driver reads (``correct``, ``attempted``, ``failed``,
``metrics``). It carries numbers only: a per-layer metric that does not
apply to the workload, or whose wrap target is gone, is ``null`` in the
table and in the record and 0 in that line.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import subprocess
import sys
import time
from dataclasses import asdict
from typing import Any, Dict, Optional, Sequence

from stats import median, summarize, verdict
from workloads import (
    CLUSTER,
    END_TO_END,
    FULL_REPEATS,
    KEY_SPACE,
    PER_LAYER,
    PUT_FRACTION,
    REPEAT_SECONDS,
    VALUE_BYTES,
    WARMUP_COMMANDS,
    WORKLOADS,
    WORKLOADS_BY_NAME,
    WorkloadSpec,
)

HERE = pathlib.Path(__file__).resolve().parent
DATA_ROOT = HERE / ".data"
RUNS_DIR = HERE / "runs"
#: The contract gives a run 180 s; a repeat that takes longer than this
#: is stuck, and is killed rather than waited for.
REPEAT_TIMEOUT_S = 150.0


# ----------------------------------------------------------------------
# Running repeats.
# ----------------------------------------------------------------------


def run_repeat(
    spec: WorkloadSpec, seed: int, seconds: float, traced: bool, warmup: int
) -> Dict[str, Any]:
    """One fresh subprocess; returns the JSON object it printed."""
    request = {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "warmup": warmup,
        "data_root": str(DATA_ROOT),
        "spawned_at": time.time(),
    }
    # subprocess.run kills the child and waits for it on timeout.
    child = subprocess.run(
        [sys.executable, str(HERE / "repeat.py"), json.dumps(request)],
        capture_output=True,
        text=True,
        timeout=REPEAT_TIMEOUT_S,
    )
    for line in child.stderr.splitlines():
        if line.startswith("warning:"):
            print(line, file=sys.stderr)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise RuntimeError(
            f"{spec.name} repeat (seed {seed}) exited with code {child.returncode}"
        )
    return json.loads(child.stdout.strip().splitlines()[-1])


def run_workload(
    spec: WorkloadSpec,
    seed: int,
    untraced: int,
    traced: int,
    seconds: float = REPEAT_SECONDS,
    warmup: int = WARMUP_COMMANDS,
) -> Dict[str, Any]:
    """*untraced* then *traced* repeats of one workload, summarised.

    Repeat *i* runs with ``seed + i``. The first untraced repeat is also
    the reference for ``trace.overhead_frac``.
    """
    repeats = [
        run_repeat(spec, seed + index, seconds, index >= untraced, warmup)
        for index in range(untraced + traced)
    ]
    plain = [r for r in repeats if not r["traced"]]
    with_trace = [r for r in repeats if r["traced"]]
    end_to_end = {
        metric.name: summarize([r["end_to_end"][metric.name] for r in plain])
        for metric in END_TO_END
    }
    per_layer: Optional[Dict[str, Optional[float]]] = None
    if with_trace:
        per_layer = {}
        for metric in PER_LAYER:
            values = [
                r["per_layer"][metric.name]
                for r in with_trace
                if r["per_layer"].get(metric.name) is not None
            ]
            per_layer[metric.name] = median(values) if values else None
        traced_cpu = median([r["end_to_end"]["cpu_us_per_cmd"] for r in with_trace])
        per_layer["trace.overhead_frac"] = (
            traced_cpu / end_to_end["cpu_us_per_cmd"]["median"] - 1.0
        )
    attempted = sum(r["attempted"] for r in plain)
    failed = sum(r["failed"] for r in plain)
    return {
        "workload": spec.name,
        "why": spec.why,
        "spec": spec.to_record(),
        "seed": seed,
        "repeat_seconds": seconds,
        "warmup_commands": warmup,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "correct": all(r["correct"] for r in repeats),
        "problems": [p for r in repeats for p in r["problems"]],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "repeats": repeats,
    }


def run_set(spec: WorkloadSpec, seed: int, runs: int) -> Dict[str, Any]:
    """*runs* full runs of one workload, each with another seed — what
    the driver does to judge steadiness, ten at a time.

    With more than one run a value is the median over the runs' medians
    and its spread is taken over them, which is the set-against-set rule
    ``--compare`` then applies. Run 0 carries the traced repeat and
    keeps its per-repeat detail; the others keep their medians.
    """
    members = [
        run_workload(spec, seed + 2 * FULL_REPEATS * k, FULL_REPEATS, 1 if k == 0 else 0)
        for k in range(runs)
    ]
    merged = dict(members[0])
    if runs == 1:
        return merged
    merged["end_to_end"] = {
        metric.name: summarize([m["end_to_end"][metric.name]["median"] for m in members])
        for metric in END_TO_END
    }
    merged["attempted"] = sum(m["attempted"] for m in members)
    merged["failed"] = sum(m["failed"] for m in members)
    merged["failed_frac"] = merged["failed"] / merged["attempted"]
    merged["correct"] = all(m["correct"] for m in members)
    merged["problems"] = [p for m in members for p in m["problems"]]
    merged["runs"] = [
        {
            "seed": m["seed"],
            "end_to_end": {name: s["median"] for name, s in m["end_to_end"].items()},
        }
        for m in members
    ]
    return merged


# ----------------------------------------------------------------------
# Printing.
# ----------------------------------------------------------------------


def _number(value: Optional[float]) -> str:
    if value is None:
        return "null"
    return f"{value:,.4g}" if abs(value) < 1000 else f"{value:,.1f}"


def print_summary(summary: Dict[str, Any]) -> None:
    spec = summary["spec"]
    print(f"\n== {summary['workload']} — {summary['why']}")
    print(
        f"   n={CLUSTER.n} f={CLUSTER.f} e={CLUSTER.e} batch={CLUSTER.batch_size} "
        f"window={CLUSTER.window} codec={CLUSTER.codec} groups={spec['groups']} "
        f"durable={spec['durable']}; injected message delay "
        f"{CLUSTER.injected_delay_ms:g} ms, so latency is processor time"
    )
    plain = [r for r in summary["repeats"] if not r["traced"]]
    runs = len(summary.get("runs", ())) or 1
    print(
        f"   {runs} run(s) x {len(plain)} repeat(s) x {summary['repeat_seconds']:g} s, "
        f"seed {summary['seed']}; attempted {summary['attempted']}, "
        f"failed {summary['failed']} (failed_frac {summary['failed_frac']:g}), "
        f"checks {'pass' if summary['correct'] else 'FAIL'}"
    )
    for problem in summary["problems"]:
        print(f"   PROBLEM: {problem}")
    print(f"   {'end-to-end':<34}{'median':>12} {'unit':<7}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
    for metric in END_TO_END:
        s = summary["end_to_end"][metric.name]
        print(
            f"   {metric.name:<34}{_number(s['median']):>12} {metric.unit:<7}"
            f"{_number(s['q1']):>12}{_number(s['q3']):>12}"
            f"{s['spread']:>9.3f}{metric.bound:>7.2f}"
        )
    if summary["per_layer"] is not None:
        print(f"   {'per-layer (traced)':<34}{'value':>12} unit")
        for metric in PER_LAYER:
            value = summary["per_layer"][metric.name]
            print(f"   {metric.name:<34}{_number(value):>12} {metric.unit}")


def result_line(summary: Dict[str, Any], traced: bool) -> str:
    """The object the driver reads from the last line of stdout."""
    if traced:
        metrics = {
            metric.name: {
                "value": summary["per_layer"][metric.name] or 0.0,
                "unit": metric.unit,
            }
            for metric in PER_LAYER
        }
    else:
        metrics = {
            metric.name: {
                "value": summary["end_to_end"][metric.name]["median"],
                "unit": metric.unit,
            }
            for metric in END_TO_END
        }
    return json.dumps(
        {
            "correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": metrics,
        }
    )


# ----------------------------------------------------------------------
# The run record.
# ----------------------------------------------------------------------


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=HERE,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"  # the driver's checkout is not a git repository


def _filesystem_type(path: pathlib.Path) -> str:
    """Type of the filesystem holding *path* (longest mount-point match)."""
    best, best_type = "", "unknown"
    try:
        mounts = pathlib.Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return best_type
    target = str(path.resolve())
    for line in mounts:
        _device, mount_point, fs_type = line.split()[:3]
        if target.startswith(mount_point) and len(mount_point) > len(best):
            best, best_type = mount_point, fs_type
    return best_type


def build_record(summaries: Sequence[Dict[str, Any]], seed: int) -> Dict[str, Any]:
    return {
        "schema": 1,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "commit": _commit(),
        "host": {
            "node": platform.node(),
            "machine": platform.machine(),
            "system": f"{platform.system()} {platform.release()}",
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "data_dir_filesystem": _filesystem_type(HERE),
        },
        "seed": seed,
        "config": {
            "cluster": asdict(CLUSTER),
            "key_space": KEY_SPACE,
            "put_fraction": PUT_FRACTION,
            "value_bytes": VALUE_BYTES,
            "latency_is": "processor time (no injected message delay)",
        },
        "bounds": {metric.name: metric.bound for metric in END_TO_END},
        "workloads": {summary["workload"]: summary for summary in summaries},
    }


def write_record(record: Dict[str, Any]) -> pathlib.Path:
    RUNS_DIR.mkdir(exist_ok=True)
    stamp = record["created_utc"].replace(":", "").replace("-", "").split("+")[0]
    path = RUNS_DIR / f"{stamp}-{record['commit']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------


def compare(base_path: str, change_path: str) -> int:
    """Print the regression rule applied to two records; 0 if all ok."""
    base = json.loads(pathlib.Path(base_path).read_text())
    change = json.loads(pathlib.Path(change_path).read_text())
    print(f"base   {base_path}  commit {base['commit']}  {base['created_utc']}")
    print(f"change {change_path}  commit {change['commit']}  {change['created_utc']}")
    print(
        f"{'workload':<13}{'metric':<20}{'base':>12}{'change':>12}"
        f"{'diff':>9}{'bound':>7}  status"
    )
    not_ok = 0
    for spec in WORKLOADS:
        if spec.name not in base["workloads"] or spec.name not in change["workloads"]:
            continue
        for metric in END_TO_END:
            outcome = verdict(
                base["workloads"][spec.name]["end_to_end"][metric.name],
                change["workloads"][spec.name]["end_to_end"][metric.name],
                metric.better,
                metric.bound,
            )
            not_ok += outcome["status"] != "ok"
            print(
                f"{spec.name:<13}{metric.name:<20}{_number(outcome['base']):>12}"
                f"{_number(outcome['change']):>12}{outcome['relative']:>+9.3f}"
                f"{outcome['bound']:>7.2f}  {outcome['status']}"
            )
    for name, record in (("base", base), ("change", change)):
        for workload, summary in record["workloads"].items():
            if summary["failed"] or not summary["correct"]:
                not_ok += 1
                print(f"{name} {workload}: failed={summary['failed']} correct={summary['correct']}")
    return 1 if not_ok else 0


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help=f"measured seconds per workload, split into {REPEAT_SECONDS:g} s repeats",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="one 1 s repeat per workload, no record"
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=1,
        help="full record only: runs per workload, each with another seed (the "
        "driver judges steadiness on 10); values are then medians of runs",
    )
    parser.add_argument("--compare", nargs=2, metavar=("BASE.json", "CHANGE.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)

    if args.smoke:
        specs = [WORKLOADS_BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
        summaries = [
            run_workload(
                spec, args.seed, 1, args.trace, seconds=1.0, warmup=WARMUP_COMMANDS // 4
            )
            for spec in specs
        ]
    elif args.workload:
        repeats = max(1, round((args.seconds or FULL_REPEATS * REPEAT_SECONDS) / REPEAT_SECONDS))
        untraced = 1 if args.trace else repeats
        summaries = [
            run_workload(
                WORKLOADS_BY_NAME[args.workload],
                args.seed,
                untraced,
                max(1, repeats - untraced) if args.trace else 0,
            )
        ]
    else:
        summaries = [run_set(spec, args.seed, args.runs) for spec in WORKLOADS]

    for summary in summaries:
        print_summary(summary)
    if not args.workload and not args.smoke:
        print(f"\nrecord: {write_record(build_record(summaries, args.seed))}")
    ok = all(summary["correct"] for summary in summaries)
    if args.workload and not args.smoke:
        print(result_line(summaries[0], bool(args.trace)))
        return 0  # the driver reads ``correct`` from the line above
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
