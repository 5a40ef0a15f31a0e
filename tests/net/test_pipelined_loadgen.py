"""Open-loop pipelined clients against a live batched cluster.

Covers the client half of the throughput path: ``KVClient.run_pipelined``
keeps a window of commands outstanding on one connection, the load
generator's ``pipeline > 1`` mode drives whole workloads that way, and
failover re-submits the outstanding window idempotently when the pinned
proxy is gone. ``submit`` at both client layers is the same path with a
window of one; ``TestSubmitIsARunOfOne`` pins that contract.
"""

import asyncio

import pytest

from repro.core.errors import ConfigurationError
from repro.net.client import ClientError, KVClient, PipelineError
from repro.net.cluster import LocalCluster
from repro.net.loadgen import run_loadgen
from repro.omega import static_omega_factory
from repro.net.wire import ClientReply, WrongShard
from repro.protocols.twostep import TwoStepConfig
from repro.shard import ShardRouter, ShardedCluster
from repro.shard import router as router_module
from repro.shard.placement import PlacementMap
from repro.smr import KVCommand, check_logs_consistent
from repro.smr.log import smr_factory

HARD_TIMEOUT = 90.0


def _run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, HARD_TIMEOUT))


def _batched_factory(delta=0.5, batch_size=8, window=4):
    return smr_factory(
        1,
        1,
        delta=delta,
        omega_factory=static_omega_factory(0),
        consensus_config=TwoStepConfig(f=1, e=1, delta=delta, is_object=True),
        batch_size=batch_size,
        window=window,
    )


class TestPipelinedLoadgen:
    def test_pipelined_run_completes_and_logs_converge(self):
        count = 60

        async def live():
            async with LocalCluster(
                3, _batched_factory(), serve_clients=True
            ) as cluster:
                report = await run_loadgen(
                    {0: cluster.addresses},
                    clients=2,
                    count=count,
                    pipeline=8,
                    seed=5,
                    codec=cluster.codec,
                )
                assert report.failed == 0
                assert report.completed == count
                assert report.pipeline == 8
                assert report.to_record()["pipeline"] == 8
                await cluster.wait_logs_converged(
                    timeout=30.0, expected_commands=count
                )
                replicas = cluster.survivor_replicas()
                assert check_logs_consistent(replicas) == []
                for replica in replicas:
                    applied = [c.command_id for c in replica.store.log]
                    assert len(applied) == len(set(applied))

        _run(live())

    def test_pipeline_depth_must_be_positive(self):
        async def live():
            with pytest.raises(ConfigurationError, match="pipeline"):
                await run_loadgen({0: [("127.0.0.1", 1)]}, pipeline=0)

        _run(live())

    def test_pipelined_failures_surface_per_command(self):
        """An unreachable cluster yields per-command errors, like closed-loop.

        The pipelined worker must not collapse a failed window into one
        opaque exception: every unfinished command shows up in
        ``report.errors`` (and the report's ``errors_sample``), and
        ``failed`` counts them — the same contract the closed-loop path
        keeps.
        """
        count = 6

        async def live():
            # Nothing listens on port 1; every attempt fails fast.
            return await run_loadgen(
                {0: [("127.0.0.1", 1)]},
                clients=2,
                count=count,
                pipeline=4,
                timeout=0.2,
                max_attempts=2,
            )

        report = _run(live())
        assert report.completed == 0
        assert report.failed == count
        assert len(report.errors) == count
        assert all("incomplete" in error for error in report.errors)
        record = report.to_record()
        assert record["failed"] == count
        assert record["errors_sample"] == report.errors[:5]


def _puts(count):
    return [
        KVCommand(op="put", key=f"k{i}", value=i, command_id=f"r{i}")
        for i in range(count)
    ]


class _ScriptedClient:
    """Stands in for a group's ``KVClient``: each run plays the next
    scripted outcome — ``"redirect"`` bounces every command back to this
    group, ``"fail"`` completes nothing, ``"ok"`` completes everything."""

    def __init__(self, script):
        self.script = list(script)
        self.runs = 0
        self.redirects = {}

    async def run_pipelined(self, commands, window, proxy, on_reply=None, traces=None):
        self.runs += 1
        step = self.script.pop(0)
        self.redirects = {}
        if step == "redirect":
            self.redirects = {
                command.command_id: WrongShard("q", command.command_id, 0, 0, {})
                for command in commands
            }
            return {}
        if step == "fail":
            raise PipelineError("scripted failure: incomplete", {}, [])
        return {
            command.command_id: ClientReply("q", command.command_id, None, 0.0)
            for command in commands
        }


class TestRouterGivesUp:
    def test_dead_cluster_fails_within_twice_one_clients_budget(self):
        """A round that completes nothing and sees no redirect is the last."""
        dead = [("127.0.0.1", 1)]
        commands = _puts(6)

        async def timed(runner):
            loop = asyncio.get_running_loop()
            started = loop.time()
            with pytest.raises(PipelineError) as raised:
                await runner.run_pipelined(commands, window=4)
            await runner.close()
            return loop.time() - started, raised.value

        async def live():
            client = KVClient(dead, client_id="budget", timeout=0.2, max_attempts=2)
            router = ShardRouter(
                {0: dead}, PlacementMap.initial(1), timeout=0.2, max_attempts=2
            )
            return await timed(client), await timed(router)

        (budget, _), (elapsed, error) = _run(live())
        assert elapsed < 2 * budget, (elapsed, budget)
        assert "incomplete" in str(error) and len(error.pending) == len(commands)
        assert isinstance(error.__cause__, PipelineError)

    def test_a_redirect_round_without_progress_still_retries(self, monkeypatch):
        monkeypatch.setattr(router_module, "REDIRECT_BACKOFF", 0.0)
        router = ShardRouter({0: [("127.0.0.1", 1)]}, PlacementMap.initial(1))
        scripted = _ScriptedClient(["redirect", "redirect", "ok"])
        router._clients[0] = scripted
        replies = _run(router.run_pipelined(_puts(3)))
        assert scripted.runs == 3 and len(replies) == 3
        assert router.redirect_count == 6

    def test_a_failed_round_after_redirects_stops_the_run(self, monkeypatch):
        monkeypatch.setattr(router_module, "REDIRECT_BACKOFF", 0.0)
        router = ShardRouter({0: [("127.0.0.1", 1)]}, PlacementMap.initial(1))
        scripted = _ScriptedClient(["redirect", "fail", "ok"])
        router._clients[0] = scripted
        with pytest.raises(PipelineError, match="after 2 round"):
            _run(router.run_pipelined(_puts(3)))
        assert scripted.runs == 2


class TestRunPipelined:
    def test_empty_command_list_returns_no_replies(self):
        async def live():
            client = KVClient([("127.0.0.1", 1)], client_id="empty")
            try:
                assert await client.run_pipelined([]) == {}
            finally:
                await client.close()

        _run(live())

    def test_window_and_ids_validated(self):
        async def live():
            client = KVClient([("127.0.0.1", 1)], client_id="bad")
            try:
                with pytest.raises(ClientError, match="window"):
                    await client.run_pipelined(
                        [KVCommand(op="get", key="k", command_id="x")], window=0
                    )
                with pytest.raises(ClientError, match="command_id"):
                    await client.run_pipelined([KVCommand(op="get", key="k")])
            finally:
                await client.close()

        _run(live())

    def test_pipelined_replies_match_closed_loop_results(self):
        commands = [
            KVCommand(op="put", key="k", value=i, command_id=f"pl-{i}")
            for i in range(12)
        ] + [KVCommand(op="get", key="k", command_id="pl-get")]

        async def live():
            async with LocalCluster(
                3, _batched_factory(), serve_clients=True
            ) as cluster:
                client = KVClient(
                    cluster.addresses, client_id="pl", codec=cluster.codec
                )
                try:
                    replies = await client.run_pipelined(commands, window=4)
                finally:
                    await client.close()
                assert set(replies) == {c.command_id for c in commands}
                assert replies["pl-get"].result == 11  # last put wins
                assert all(not r.duplicate for r in replies.values())

        _run(live())

    def test_pipelined_window_fails_over_after_proxy_crash(self):
        commands = [
            KVCommand(op="put", key="k", value=i, command_id=f"fo-{i}")
            for i in range(10)
        ]

        async def live():
            async with LocalCluster(
                3, _batched_factory(delta=1.0), serve_clients=True
            ) as cluster:
                await cluster.crash(2)  # f=1 tolerated; not the Ω leader
                client = KVClient(
                    cluster.addresses,
                    client_id="fo",
                    codec=cluster.codec,
                    timeout=2.0,
                )
                try:
                    replies = await client.run_pipelined(
                        commands, window=4, proxy=2
                    )
                finally:
                    await client.close()
                assert set(replies) == {c.command_id for c in commands}
                assert client.proxy != 2  # the whole window failed over

        _run(live())


class TestSubmitIsARunOfOne:
    def test_submit_without_command_id_is_refused_before_dialing(self):
        async def live():
            client = KVClient([("127.0.0.1", 1)], client_id="noid", max_attempts=1)
            dials = []
            ensure_connected = client._ensure_connected

            async def spy():
                dials.append(client.proxy)
                await ensure_connected()

            client._ensure_connected = spy
            try:
                with pytest.raises(ClientError, match="command_id"):
                    await client.submit(KVCommand(op="put", key="a", value=1))
            finally:
                await client.close()
            return dials

        assert _run(live()) == []

    def test_submit_to_a_group_not_owning_the_key_returns_the_redirect(self):
        async def live():
            async with ShardedCluster(
                2, 3, _batched_factory(delta=0.05), slots=16
            ) as cluster:
                key = next(
                    f"k{i}" for i in range(1000)
                    if cluster.placement.group_for_key(f"k{i}") == 1
                )
                client = KVClient(
                    cluster.addresses_by_group[0],
                    client_id="stray",
                    codec=cluster.codec,
                )
                try:
                    command = KVCommand(
                        op="put", key=key, value=1, command_id="stray-1"
                    )
                    return await client.submit(command)
                finally:
                    await client.close()

        redirect = _run(live())
        assert isinstance(redirect, WrongShard)
        assert redirect.command_id == "stray-1"
        assert redirect.group == 1

    def test_router_submit_runs_on_its_group_and_only_a_redirect_reroutes(
        self, monkeypatch
    ):
        monkeypatch.setattr(router_module, "REDIRECT_BACKOFF", 0.0)
        router = ShardRouter({0: [("127.0.0.1", 1)]}, PlacementMap.initial(1))
        scripted = _ScriptedClient(["ok", "redirect", "ok"])
        router._clients[0] = scripted
        reroutes = []
        run_pipelined = router.run_pipelined

        async def spy(commands, **options):
            reroutes.append([c.command_id for c in commands])
            return await run_pipelined(commands, **options)

        router.run_pipelined = spy
        first, second = _puts(2)
        assert _run(router.submit(first)).command_id == "r0"
        assert (scripted.runs, reroutes, router.redirect_count) == (1, [], 0)
        assert _run(router.submit(second)).command_id == "r1"
        assert (scripted.runs, reroutes, router.redirect_count) == (3, [["r1"]], 1)
        assert router.group_commands == {0: 2}

    def test_router_refuses_control_plane_before_creating_a_client(self):
        router = ShardRouter({0: [("127.0.0.1", 1)]}, PlacementMap.initial(1))
        config = KVCommand(op="config", key="", value={}, command_id="cfg-1")
        with pytest.raises(ClientError, match="control-plane"):
            _run(router.submit(config))
        assert router._clients == {}
