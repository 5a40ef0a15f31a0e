"""Perf smoke: the batched/pipelined path stays an order faster than PR 2.

CI-grade guard for the throughput path: a pipelined load generator
against a 3-node batching ``LocalCluster`` must clear a deliberately
generous throughput floor (~1/8 of what an idle dev machine measures in
``benchmarks/bench_net.py``) with zero failures. The goal is to catch a
path regression that silently serializes the pipeline — not to measure;
the benchmark owns the real numbers. Every scenario carries its own hard
``asyncio`` timeout so a wedged cluster fails fast instead of hanging CI.

The observability budget rides along: metrics are on by default with a
stated ceiling of 5% throughput cost (``docs/OBSERVABILITY.md``), which
``benchmarks/bench_net.py`` measures precisely. Here the default-on run
is compared against a run with every node's registry nulled out (best of
three interleaved runs a side), with a deliberately loose guard (no worse
than 30% below metrics-off) so shared CI runners don't flake — a counter
path that accidentally turns O(1) increments into per-message encoding
work still fails it clearly.
"""

import asyncio
import tempfile

from repro.net.cluster import LocalCluster
from repro.net.codec import make_codec
from repro.net.loadgen import run_loadgen
from repro.obs import Observability
from repro.omega import static_omega_factory
from repro.protocols.twostep import TwoStepConfig
from repro.smr import check_logs_consistent
from repro.smr.log import smr_factory

HARD_TIMEOUT = 120.0
COMMANDS = 1500
#: Generous floor: dev machines measure ~2,200/s; shared CI runners are
#: slower, but an accidentally-serialized path lands near the ~350/s
#: closed-loop figure and fails this clearly.
THROUGHPUT_FLOOR = 250.0
#: The binary codec's floor is 1.5× the JSON floor — the same ratio the
#: codec is required to deliver over the PR-3 baseline in
#: ``benchmarks/results/baseline_net.json``, scaled down to smoke levels
#: so shared runners don't flake.
BINARY_THROUGHPUT_FLOOR = 1.5 * THROUGHPUT_FLOOR
#: Loose CI guard for the metrics-on/metrics-off ratio; the real ≤5%
#: budget is tracked by the benchmark, not this smoke test.
OVERHEAD_GUARD = 0.70


def _batched_factory():
    delta = 0.05
    return smr_factory(
        1,
        1,
        delta=delta,
        omega_factory=static_omega_factory(0),
        consensus_config=TwoStepConfig(f=1, e=1, delta=delta, is_object=True),
        batch_size=64,
        window=1,
    )


#: Loose CI guard for the fsync-on/fsync-off ratio on a durable cluster.
#: Group commit amortizes one fsync over a whole activation's records;
#: a regression to per-record fsyncs collapses throughput far below this.
FSYNC_GUARD = 0.25


async def _pipelined_run(
    metrics: bool = True,
    data_dir: str | None = None,
    fsync: bool = True,
    codec_name: str = "json",
    trace_sample: int | None = None,
    client_trace_sample: int = 0,
) -> float:
    """One 1500-command pipelined run; returns throughput (commands/s)."""
    cluster = LocalCluster(
        3,
        _batched_factory(),
        serve_clients=True,
        data_dir=data_dir,
        fsync=fsync,
        codec=make_codec(codec_name),
        trace_sample=trace_sample,
    )
    if not metrics:
        # LocalCluster has no obs knob by design (metrics are the
        # default); null every node's registry before launch instead.
        for node in cluster.nodes:
            node.obs = Observability.disabled(node=node.pid)
    async with cluster:
        report = await run_loadgen(
            cluster.addresses,
            clients=2,
            count=COMMANDS,
            pipeline=64,
            codec=cluster.codec,
            trace_sample=client_trace_sample,
        )
        assert report.failed == 0, report.errors
        assert report.completed == COMMANDS
        await cluster.wait_logs_converged(timeout=30.0, expected_commands=COMMANDS)
        assert check_logs_consistent(cluster.survivor_replicas()) == []
        return report.throughput


async def _best_of_interleaved(first: dict, second: dict) -> tuple[float, float]:
    """Best throughput of three runs per side, alternating the sides.

    The box drifts 10-25 % for minutes at a time: one run against one
    other compares two moments, not two configurations. Alternating puts
    both sides through the same spells, and the best of three is each
    side's least-disturbed run.
    """
    best_first = best_second = 0.0
    for _ in range(3):
        best_first = max(best_first, await _pipelined_run(**first))
        best_second = max(best_second, await _pipelined_run(**second))
    return best_first, best_second


def test_pipelined_throughput_clears_the_floor():
    async def live():
        throughput = await _pipelined_run()
        assert throughput >= THROUGHPUT_FLOOR, (
            f"pipelined throughput {throughput:,.0f}/s below the "
            f"{THROUGHPUT_FLOOR:,.0f}/s smoke floor"
        )

    asyncio.run(asyncio.wait_for(live(), HARD_TIMEOUT))


def test_binary_codec_clears_a_higher_floor():
    """``--codec binary`` must clear 1.5× the JSON smoke floor.

    This is the CI-level gate for the codec acceptance criterion; the
    measured speedup itself is recorded by ``benchmarks/bench_net.py``
    under the ``codec`` dimension of ``baseline_net.json``.
    """

    async def live():
        throughput = await _pipelined_run(codec_name="binary")
        assert throughput >= BINARY_THROUGHPUT_FLOOR, (
            f"binary-codec pipelined throughput {throughput:,.0f}/s below "
            f"the {BINARY_THROUGHPUT_FLOOR:,.0f}/s smoke floor"
        )

    asyncio.run(asyncio.wait_for(live(), HARD_TIMEOUT))


def test_metrics_overhead_stays_bounded():
    """Default-on metrics must not meaningfully tax the hot path."""

    async def live():
        with_metrics, without_metrics = await _best_of_interleaved(
            dict(metrics=True), dict(metrics=False)
        )
        assert with_metrics >= OVERHEAD_GUARD * without_metrics, (
            f"metrics-on throughput {with_metrics:,.0f}/s fell below "
            f"{OVERHEAD_GUARD:.0%} of metrics-off {without_metrics:,.0f}/s"
        )

    asyncio.run(asyncio.wait_for(live(), HARD_TIMEOUT))


def test_tracing_overhead_stays_bounded():
    """Span tracing must fit inside the same observability budget.

    A traced run — every node self-sampling every 8th sealed slot AND
    the clients stamping every 8th command — is compared against the
    default spans-off run. The stated ceiling is the 5% budget shared
    with metrics (``docs/OBSERVABILITY.md``); the guard here is the same
    deliberately loose CI ratio as the metrics one, catching a tracing
    path that accidentally encodes spans per message rather than per
    sampled slot.
    """

    async def live():
        untraced, traced = await _best_of_interleaved(
            dict(), dict(trace_sample=8, client_trace_sample=8)
        )
        assert traced >= OVERHEAD_GUARD * untraced, (
            f"traced throughput {traced:,.0f}/s fell below "
            f"{OVERHEAD_GUARD:.0%} of untraced {untraced:,.0f}/s"
        )

    asyncio.run(asyncio.wait_for(live(), HARD_TIMEOUT))


def test_fsync_overhead_stays_bounded():
    """Group-commit fsync durability must stay within its budget.

    Same durable cluster twice — WAL on in both runs, ``fsync`` on vs
    off (the CLI's ``--no-fsync``) — so the ratio isolates the fsync
    syscall cost from the journaling cost. The precise number lives in
    ``benchmarks/bench_net.py`` (``results/durability_net.json``); this
    guard only catches a collapse, e.g. losing the group in group commit.
    """

    async def live():
        with tempfile.TemporaryDirectory(prefix="repro-smoke-wal-") as nofsync_dir:
            without_fsync = await _pipelined_run(data_dir=nofsync_dir, fsync=False)
        with tempfile.TemporaryDirectory(prefix="repro-smoke-wal-") as fsync_dir:
            with_fsync = await _pipelined_run(data_dir=fsync_dir, fsync=True)
        assert with_fsync >= FSYNC_GUARD * without_fsync, (
            f"fsync-on throughput {with_fsync:,.0f}/s fell below "
            f"{FSYNC_GUARD:.0%} of fsync-off {without_fsync:,.0f}/s"
        )

    asyncio.run(asyncio.wait_for(live(), HARD_TIMEOUT))
