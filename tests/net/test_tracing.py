"""Live tracing end to end: spans on the wire.

The headline scenario is the acceptance criterion for the tracing
subsystem: a pipelined loadgen run with ``trace_sample`` against a live
:class:`LocalCluster` whose nodes record spans must come back with
merged per-command critical paths carrying the full stage decomposition
(queue → consensus → apply → reply), all on the fast path under
conflict-free load.  The interop scenarios pin mixed deployments:
traced and untraced nodes must carry the same workload correctly, a
span-less receiver dropping the trace envelopes it is sent.
"""

import asyncio

import pytest

from repro.net.cluster import LocalCluster
from repro.net.client import KVClient
from repro.net.loadgen import run_loadgen
from repro.net.node import NodeServer
from repro.net.service import KVService
from repro.net.stats import scrape_cluster
from repro.obs import critical_paths, merge_span_events
from repro.omega import static_omega_factory
from repro.protocols.twostep import TwoStepConfig
from repro.smr.client import check_logs_consistent
from repro.smr.kvstore import KVCommand
from repro.smr.log import smr_factory

HARD_TIMEOUT = 120.0


def _factory(delta: float = 0.05):
    return smr_factory(
        1,
        1,
        delta=delta,
        omega_factory=static_omega_factory(0),
        consensus_config=TwoStepConfig(f=1, e=1, delta=delta, is_object=True),
    )


def _run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, HARD_TIMEOUT))


class TestTracedLoadgen:
    def test_pipelined_loadgen_produces_critical_paths(self):
        async def scenario():
            async with LocalCluster(
                3, _factory(), serve_clients=True, trace_sample=0
            ) as cluster:
                report = await run_loadgen(
                    {0: cluster.addresses},
                    clients=2,
                    count=60,
                    pipeline=8,
                    trace_sample=5,
                    codec=cluster.codec,
                    client_id_prefix="tr",
                )
                await cluster.wait_logs_converged(30.0, expected_commands=60)
                return report

        report = _run(scenario())
        assert report.failed == 0
        assert report.trace_paths, "no critical paths came back"
        # Client-minted ids: every 5th of 60 commands = 12 stamped; all
        # land in some sealed slot (batching may coalesce several into
        # one slot, which keeps only the first adopted trace).
        assert len(report.trace_paths) >= 2
        for path in report.trace_paths:
            assert path["trace"].startswith("c.tr.")
            assert path["path"] == "fast"
            assert path["ballot"] == 0
            stages = path["stages"]
            for stage in ("queue", "consensus", "apply", "reply", "total"):
                assert stage in stages, f"missing {stage} in {stages}"
                assert stages[stage] >= 0.0
            # Conflict-free local cluster: the whole command took under
            # a second, and consensus dominates neither absurdly.
            assert stages["total"] < 5.0
        breakdown = report.trace_breakdown
        assert breakdown["counts"].get("fast", 0) == len(report.trace_paths)
        assert breakdown["paths"]["fast"]["consensus"]["p99"] >= 0.0
        record = report.to_record()
        assert record["traced_commands"] == len(report.trace_paths)

    def test_self_sampling_nodes_trace_without_client_ids(self):
        async def scenario():
            async with LocalCluster(
                3, _factory(), serve_clients=True, trace_sample=1
            ) as cluster:
                report = await run_loadgen(
                    {0: cluster.addresses},
                    clients=2,
                    count=30,
                    pipeline=4,
                    codec=cluster.codec,
                    client_id_prefix="selfsample",
                )
                assert report.failed == 0
                view = await scrape_cluster(
                    {0: cluster.addresses}, codec=cluster.codec, include_spans=True
                )
                return view

        view = _run(scenario())
        assert view["spans"], "no node returned span events"
        paths = critical_paths(merge_span_events(view["spans"]))
        assert paths
        # Proxy-minted ids (t<origin>.<slot>), not client ones.
        assert all(path["trace"].startswith("t") for path in paths)
        assert any(path["path"] == "fast" for path in paths)


class TestTraceInterop:
    def test_traced_and_untraced_nodes_interoperate(self):
        async def scenario():
            # Node 2 records no spans at all: it is sent Traced envelopes
            # like any peer and must unwrap them without recording.
            cluster = LocalCluster(3, _factory(), serve_clients=True, trace_sample=0)
            untraced = cluster.nodes[2] = NodeServer(
                2, 3, _factory(), codec=cluster.codec, client_service=KVService()
            )
            unwrap = untraced._unwrap_traced
            envelopes_from = []

            def spy(envelope, sender):
                envelopes_from.append(sender)
                return unwrap(envelope, sender)

            untraced._unwrap_traced = spy
            async with cluster:
                report = await run_loadgen(
                    {0: cluster.addresses},
                    clients=3,
                    count=45,
                    trace_sample=3,
                    codec=cluster.codec,
                    client_id_prefix="mix",
                )
                await cluster.wait_logs_converged(30.0, expected_commands=45)
                assert not check_logs_consistent(cluster.survivor_replicas())
            return report, untraced, envelopes_from

        report, untraced, envelopes_from = _run(scenario())
        assert report.failed == 0
        # Spans still came back from the traced majority.
        assert report.trace_paths
        # The traced nodes wrapped frames for the span-less node too, and
        # it dropped every envelope without recording a span.
        assert envelopes_from
        assert not untraced.obs.spans.enabled
        assert list(untraced.obs.spans.events()) == []

    def test_client_reply_echoes_trace_id(self):
        async def scenario():
            async with LocalCluster(
                3, _factory(), serve_clients=True, trace_sample=0
            ) as cluster:
                client = KVClient(
                    cluster.addresses, client_id="echo", codec=cluster.codec
                )
                try:
                    reply = await client.submit(
                        KVCommand("put", "k", "v", command_id="echo-1"),
                        proxy=0,
                        trace_id="c.echo.0",
                    )
                    untagged = await client.submit(
                        KVCommand("put", "k", "w", command_id="echo-2"),
                        proxy=0,
                    )
                finally:
                    await client.close()
                return reply, untagged

        reply, untagged = _run(scenario())
        assert reply.trace_id == "c.echo.0"
        assert untagged.trace_id == ""

    def test_spanless_cluster_ignores_client_trace_ids(self):
        async def scenario():
            async with LocalCluster(
                3, _factory(), serve_clients=True  # spans off entirely
            ) as cluster:
                client = KVClient(
                    cluster.addresses, client_id="legacy", codec=cluster.codec
                )
                try:
                    reply = await client.submit(
                        KVCommand("put", "k", "v", command_id="legacy-1"),
                        proxy=0,
                        trace_id="c.legacy.0",
                    )
                finally:
                    await client.close()
                view = await scrape_cluster(
                    {0: cluster.addresses}, codec=cluster.codec, include_spans=True
                )
                return reply, view

        reply, view = _run(scenario())
        assert reply.trace_id == ""  # the span-less proxy ignored the id
        assert "spans" not in view
