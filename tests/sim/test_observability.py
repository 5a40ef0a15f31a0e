"""The simulator's ``ctx.obs`` instrumentation: counters and stats view.

These tests pin the counter symmetry contract shared with the live
runtime (``src/repro/net/node.py``): every ``_send`` — including
self-sends — increments ``sent.<Type>``, every delivery increments
``recv.<Type>``, timers count set/fired/cancel, and ``Simulation.stats()``
returns the same ``{"nodes", "merged", "decisions", "fast_path_ratio"}``
shape ``scrape_cluster`` produces for a live cluster.
"""

from repro.core.process import Context
from repro.obs import NULL_OBS, critical_paths, fast_path_ratio, merge_span_events
from repro.omega import static_omega_factory
from repro.protocols import twostep_task_factory
from repro.sim import (
    FixedLatency,
    RandomLatency,
    Simulation,
    prefer_sender,
    two_step_deciders,
)
from repro.smr import SubmitCommand, put_get_workload, smr_factory


def _favourable_simulation(n=6, f=2, e=2, until=12.0):
    proposals = {pid: 100 + pid for pid in range(n)}
    sim = Simulation(
        twostep_task_factory(proposals, f, e, omega_factory=static_omega_factory(0)),
        n,
        latency=FixedLatency(1.0),
        delivery_priority=prefer_sender(n - 1),
        proposals=proposals,
    )
    sim.run(until=until)
    return sim


class TestSimulationCounters:
    def test_sends_and_receives_balance(self):
        sim = _favourable_simulation()
        n = sim.n
        totals = {"sent": 0, "recv": 0}
        for pid in range(n):
            counters = sim.node_snapshot(pid)["counters"]
            for name, value in counters.items():
                if name.startswith("sent."):
                    totals["sent"] += value
                elif name.startswith("recv."):
                    totals["recv"] += value
        # FixedLatency delivers everything well before the horizon and
        # nobody crashes, so every sent message was received.
        assert totals["sent"] > 0
        assert totals["sent"] == totals["recv"]

    def test_timer_counters_present(self):
        sim = _favourable_simulation()
        merged = sim.stats()["merged"]["counters"]
        assert merged.get("timer.set", 0) > 0
        # Deciders cancel their ballot timers.
        assert merged.get("timer.cancel", 0) > 0

    def test_per_message_type_labels(self):
        sim = _favourable_simulation()
        merged = sim.stats()["merged"]["counters"]
        labels = {name.split(".", 1)[1] for name in merged if name.startswith("sent.")}
        # The favourable two-step schedule exchanges at least proposals
        # and ballot-0 votes.
        assert any("TwoB" in label for label in labels), labels

    def test_favourable_schedule_is_all_fast(self):
        sim = _favourable_simulation()
        deciders = two_step_deciders(sim.run_record, delta=1.0)
        assert deciders
        stats = sim.stats()
        assert set(stats) == {"nodes", "merged", "decisions", "fast_path_ratio"}
        assert fast_path_ratio(stats["merged"]) == 1.0
        merged_counters = stats["merged"]["counters"]
        fast = merged_counters["consensus.decisions_fast"]
        learned = merged_counters.get("consensus.decisions_learned", 0)
        decided = sum(
            1 for pid in range(sim.n) if sim.run_record.decision_time(pid) is not None
        )
        assert fast + learned == decided


class TestObsSeam:
    def test_uninstrumented_context_defaults_to_null_obs(self):
        class BareContext(Context):
            @property
            def pid(self):
                return 0

            @property
            def n(self):
                return 1

            @property
            def now(self):
                return 0.0

            def send(self, to, message):
                pass

            def broadcast(self, message, include_self=False):
                pass

            def set_timer(self, name, delay):
                pass

            def cancel_timer(self, name):
                pass

            def decide(self, value):
                pass

        ctx = BareContext()
        assert ctx.obs is NULL_OBS
        # Writing through the null obs must be a silent no-op.
        ctx.obs.registry.inc("anything")
        assert ctx.obs.registry.snapshot()["counters"] == {}

    def test_simulation_contexts_are_per_node(self):
        sim = _favourable_simulation(until=2.5)
        assert len({id(obs.registry) for obs in sim.obs}) == sim.n
        assert all(obs.node == pid for pid, obs in enumerate(sim.obs))


def _traced_smr_paths(seed):
    """Critical paths of a seeded SMR workload with every slot traced."""
    n = 5
    sim = Simulation(
        smr_factory(2, 2, omega_factory=static_omega_factory(0)),
        n,
        latency=RandomLatency(0.5, 1.5, seed=seed),
        trace_sample=1,
    )
    for op in put_get_workload(8, ["x", "y"], proxies=list(range(n)), seed=seed):
        sim.inject(op.time, op.proxy, SubmitCommand(op.command))
    sim.run(until=60.0)
    return critical_paths(merge_span_events(sim.span_events()))


class TestTracedSimulation:
    def test_traced_runs_stay_deterministic(self):
        """``Simulation(trace_sample=1)`` stamps spans on virtual time, so
        the same seed yields the same non-empty critical paths."""
        first = _traced_smr_paths(seed=4)
        assert first
        assert first == _traced_smr_paths(seed=4)
