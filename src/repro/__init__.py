"""repro — reproduction of "Revisiting Lower Bounds for Two-Step Consensus".

Ryabinin, Gotsman, Sutra — PODC 2025 (brief announcement).

The library provides:

* :mod:`repro.core` — values, processes, runs, quorums, consensus and
  linearizability checkers;
* :mod:`repro.sim` — a deterministic discrete-event simulator, exact
  synchronous rounds (Definition 2), and an adversarial arena;
* :mod:`repro.omega` — the Ω leader election of §C.1;
* :mod:`repro.protocols` — Figure 1 (task and object variants), Paxos,
  Fast Paxos, and an EPaxos-style leaderless protocol;
* :mod:`repro.bounds` — the bound formulas and *executable* Appendix B
  lower-bound witnesses;
* :mod:`repro.checks` — Definition 4 / A.1 checkers and consensus
  scenario batteries;
* :mod:`repro.smr` / :mod:`repro.wan` — the replicated KV service and
  wide-area deployment modeling;
* :mod:`repro.obs` — per-node metrics, decision-path records, and
  opt-in per-command spans shared by the simulator and the live runtime;
* :mod:`repro.analysis` — the E1–E10 experiment harness.

Quickstart::

    from repro.protocols import twostep_task_factory
    from repro.omega import lowest_correct_omega_factory
    from repro.sim import synchronous_run

    f = e = 2
    n = 2 * e + f  # Theorem 5: the task bound (Fast Paxos would need 7)
    proposals = {pid: 100 + pid for pid in range(n)}
    factory = twostep_task_factory(
        proposals, f, e, omega_factory=lowest_correct_omega_factory({0, 1})
    )
    run = synchronous_run(factory, n, faulty={0, 1}, prefer=n - 1,
                          proposals=proposals)
    assert run.is_two_step_for(n - 1, delta=1.0)
"""

__version__ = "1.0.0"

from . import analysis, bounds, checks, core, obs, omega, protocols, sim, smr, wan

__all__ = [
    "__version__",
    "analysis",
    "bounds",
    "checks",
    "core",
    "obs",
    "omega",
    "protocols",
    "sim",
    "smr",
    "wan",
]
