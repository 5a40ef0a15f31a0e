#!/usr/bin/env python3
"""A replicated key-value store over Figure 1's consensus object.

The practical setting the paper's definition models: clients submit
commands to a *proxy* replica (Schneider's state-machine approach); the
proxy answers once its slot's consensus instance decides. With the object
variant of Figure 1, an uncontended command commits after exactly two
message delays at only n = max{2e+f-1, 2f+1} replicas — and the log stays
consistent through slot races and even a crashing proxy.
"""

from repro.analysis import render_records
from repro.omega import static_omega_factory
from repro.sim import CrashPlan
from repro.smr import (
    KVCommand,
    check_logs_consistent,
    put_get_workload,
    run_kv_workload,
    smr_factory,
)
from repro.smr.client import ClientOp

F = E = 2
N = max(2 * E + F - 1, 2 * F + 1)  # 5 replicas


def section(title):
    print()
    print(title)
    print("-" * len(title))


def main() -> None:
    factory = smr_factory(F, E, omega_factory=static_omega_factory(0))

    section(f"Uncontended workload on {N} replicas (commands 4Δ apart)")
    ops = put_get_workload(8, ["user:1", "user:2"], proxies=list(range(N)), spacing=4.0)
    outcome = run_kv_workload(factory, N, ops, until=100.0)
    rows = [
        {
            "command": op.command.command_id,
            "proxy": op.proxy,
            "op": f"{op.command.op} {op.command.key}",
            "commit_latency": outcome.commit_latency.get(op.command.command_id),
            "result": repr(outcome.results.get(op.command.command_id)),
        }
        for op in ops
    ]
    print(render_records(rows))
    print(f"log consistency violations: {check_logs_consistent(outcome.replicas) or 'none'}")

    section("Contended workload: three proxies race for the same slots")
    ops = put_get_workload(6, ["hot"], proxies=[0, 1, 2], spacing=0.0)
    outcome = run_kv_workload(factory, N, ops, until=200.0)
    log = outcome.replicas[0].committed_log()
    print("final log at replica 0:")
    for slot in sorted(log):
        members = [f"{c.command_id} ({c.op} {c.key})" for c in log[slot].commands]
        print(f"  slot {slot}: {', '.join(members)}")
    print(f"commit latencies: {sorted(outcome.commit_latency.values())}")
    print(f"violations: {check_logs_consistent(outcome.replicas) or 'none'}")

    section("A proxy crashes mid-flight; the log heals itself")
    ops = [
        ClientOp(0.0, 1, KVCommand(op="put", key="a", value=1, command_id="doomed")),
        ClientOp(2.0, 0, KVCommand(op="put", key="b", value=2, command_id="b2")),
        ClientOp(4.0, 2, KVCommand(op="put", key="c", value=3, command_id="c3")),
    ]
    outcome = run_kv_workload(
        factory, N, ops, until=300.0, crashes=CrashPlan.at(0.5, [1])
    )
    live = [r for r in outcome.replicas if r.pid != 1]
    print(f"unfinished (crashed proxy's own): {outcome.unfinished}")
    print(f"violations among live replicas: {check_logs_consistent(live) or 'none'}")
    print(f"stores converged to: {live[0].store.snapshot()}")
    applied = [replica.applied_upto for replica in live]
    print(f"applied-through (per live replica): {applied}")


if __name__ == "__main__":
    main()
