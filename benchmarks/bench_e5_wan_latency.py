"""E5 — WAN commit latency vs system size (§1's "hundreds of
milliseconds" claim).

Same (f, e) = (2, 2), same seven-region topology, three system sizes:
the object bound (5), the task bound (6), Lamport's bound (7). Every
extra process pushes the proposer's fast quorum to a farther site.
"""

from repro.analysis import EXPERIMENTS
from conftest import emit


def bench_e5_wan_latency(once):
    entry = EXPERIMENTS["e5"]
    tables = once(entry.compute)
    emit(entry.results, entry.render(tables))
    rows, comparison = tables
    by_protocol = {r["protocol"]: r["mean_ms"] for r in comparison}
    assert by_protocol["twostep-object"] < by_protocol["twostep-task"]
    assert by_protocol["twostep-task"] < by_protocol["fast-paxos"]
    assert by_protocol["twostep-object"] < by_protocol["paxos (leader@us-east)"]
    means = [row["measured_mean_ms"] for row in rows]
    maxes = [row["measured_max_ms"] for row in rows]
    assert means[0] <= means[1] <= means[2]
    assert means[2] - means[0] > 30, "the gap should be tens of ms on average"
    assert maxes[2] - maxes[0] >= 40, "and larger at the worst proposer"
    for row in rows:
        assert abs(row["measured_mean_ms"] - row["predicted_mean_ms"]) < 1e-6
