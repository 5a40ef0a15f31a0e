"""E10 — end-to-end: the replicated KV service on a WAN.

Proxy-observed commit latency per region for a mixed put/get workload
over Figure 1's consensus object at the minimal n = max{2e+f-1, 2f+1}.
"""

from repro.analysis import EXPERIMENTS
from conftest import emit


def bench_e10_smr_e2e(once):
    entry = EXPERIMENTS["e10"]
    tables = once(entry.compute)
    emit(entry.results, entry.render(tables))
    rows, comparison = tables
    by_stack = {r["stack"]: r for r in comparison}
    twostep = by_stack["twostep-object SMR"]
    mpaxos = by_stack["multi-paxos SMR (leader@us-east)"]
    epaxos = by_stack["epaxos SMR"]
    # The paper's story end-to-end: leaderless fast paths (Figure 1 and
    # EPaxos, both at the object bound's geometry) beat the leader detour.
    assert twostep["commit_mean_ms"] < mpaxos["commit_mean_ms"]
    assert abs(twostep["commit_mean_ms"] - epaxos["commit_mean_ms"]) < 1e-6
    total = next(r for r in rows if r["proxy"] == "ALL")
    assert total["commands"] > 0
    assert total["commit_mean"] is not None
    # WAN scale: tens-to-hundreds of ms, strictly below two max-Δ bounds.
    assert 10.0 <= total["commit_mean"] <= 2 * 160.0
