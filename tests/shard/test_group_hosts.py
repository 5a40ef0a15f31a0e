"""Process per group: every group of a ShardedCluster runs in its own host.

The host lifecycle's obligations: a start that fails part-way leaves
nothing running (no bound port, no live host) and names the group and
node that failed; a host whose parent dies — even by SIGKILL — exits on
its own; ``repro cluster --groups 2`` exits cleanly with no child left;
a host killed mid-run turns the next call into one error naming its
group, not a hang. And the views the parent reads are cheap where the
harness polls them: ``len(store.log)`` is one small request, and the
log itself ships once. Each host runs on one CPU of the caller's, in
turn; the caller's own affinity is left alone.
"""

import asyncio
import multiprocessing
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.net.cluster import ClusterStartError
from repro.omega import static_omega_factory
from repro.protocols.twostep import TwoStepConfig
from repro.shard import ShardedCluster, ShardRouter
from repro.shard.host import GroupHostError
from repro.smr.kvstore import KVCommand
from repro.smr.log import smr_factory

HARD_TIMEOUT = 60.0
SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def _factory(delta: float = 0.05):
    return smr_factory(
        1,
        1,
        delta=delta,
        omega_factory=static_omega_factory(0),
        consensus_config=TwoStepConfig(f=1, e=1, delta=delta, is_object=True),
        batch_size=16,
        window=4,
    )


def _run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, HARD_TIMEOUT))


def _running(pid: int) -> bool:
    """Whether process *pid* still runs (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


def _wait_gone(pids, seconds: float) -> list:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        alive = [pid for pid in pids if _running(pid)]
        if not alive:
            return []
        time.sleep(0.05)
    return [pid for pid in pids if _running(pid)]


def _assert_listenable(ports) -> None:
    for port in ports:
        with socket.socket() as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind(("127.0.0.1", port))
            probe.listen()


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
class TestHostLifecycle:
    def test_a_failed_start_stops_every_group_and_reaps_every_host(
        self, free_port_block
    ):
        base = free_port_block(6)
        # Group 1's node 0 wants base + 3; something else holds it.
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", base + 3))
        blocker.listen()

        async def boot():
            async with ShardedCluster(2, 3, _factory(), base_port=base):
                pytest.fail("the cluster started on a taken port")

        try:
            with pytest.raises(ClusterStartError, match="group 1: node 0 failed"):
                _run(boot())
        finally:
            blocker.close()
        assert multiprocessing.active_children() == []
        # Group 0 had started: its ports are free again, and so is every
        # port of group 1.
        _assert_listenable(range(base, base + 6))

    def test_a_parent_killed_by_sigkill_takes_its_hosts_with_it(self):
        script = (
            "import asyncio\n"
            "from repro.omega import static_omega_factory\n"
            "from repro.protocols.twostep import TwoStepConfig\n"
            "from repro.shard import ShardedCluster\n"
            "from repro.smr.log import smr_factory\n"
            "async def main():\n"
            "    factory = smr_factory(1, 1, delta=0.05,\n"
            "        omega_factory=static_omega_factory(0),\n"
            "        consensus_config=TwoStepConfig(f=1, e=1, delta=0.05, is_object=True))\n"
            "    cluster = await ShardedCluster(2, 3, factory).start()\n"
            "    print(*(h.process_pid for h in cluster.clusters.values()), flush=True)\n"
            "    await asyncio.Event().wait()\n"
            "asyncio.run(main())\n"
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        try:
            hosts = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(hosts) == 2 and all(_running(pid) for pid in hosts)
        finally:
            parent.kill()
            parent.wait(10)
            parent.stdout.close()
        assert _wait_gone(hosts, 5.0) == [], "a host outlived its parent"

    def test_cli_cluster_with_groups_exits_cleanly_and_leaves_no_child(
        self, tmp_path
    ):
        # The time-series dir is this run's marker: a forked host carries
        # the CLI's command line, so any process still naming it is ours.
        marker = str(tmp_path / "marker")
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "cluster", "--groups", "2",
                "--duration", "1", "--timeseries", marker,
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert completed.returncode == 0, completed.stderr
        assert "Traceback" not in completed.stdout + completed.stderr
        assert "peers: " in completed.stdout
        leftovers = []
        for entry in pathlib.Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                cmdline = (entry / "cmdline").read_bytes()
            except OSError:
                continue
            if marker.encode() in cmdline and _running(int(entry.name)):
                leftovers.append(int(entry.name))
        assert leftovers == []

    def test_a_killed_host_fails_the_next_call_by_name(self):
        async def scenario():
            async with ShardedCluster(2, 3, _factory()) as cluster:
                host = cluster.clusters[1]
                os.kill(host.process_pid, signal.SIGKILL)
                started = time.monotonic()
                with pytest.raises(GroupHostError, match="group 1 host is gone"):
                    host.nodes
                with pytest.raises(GroupHostError, match="group 1"):
                    await cluster.crash(1, 0)
                elapsed = time.monotonic() - started
                # The other group is untouched.
                assert [node.pid for node in cluster.clusters[0].nodes] == [0, 1, 2]
            return elapsed

        assert _run(scenario()) < 5.0
        assert multiprocessing.active_children() == []


def test_log_length_is_one_request_and_the_log_ships_once():
    async def scenario():
        async with ShardedCluster(2, 3, _factory(), slots=16) as cluster:
            router = ShardRouter(
                cluster.addresses_by_group, cluster.placement, codec=cluster.codec
            )
            try:
                await router.run_pipelined(
                    [
                        KVCommand("put", f"k{i}", i, command_id=f"v{i}")
                        for i in range(40)
                    ],
                    window=8,
                )
            finally:
                await router.close()
            await cluster.wait_groups_converged(timeout=30.0)
            host = cluster.clusters[0]
            calls = []
            call = host._call
            host._call = lambda op, *args: calls.append(op) or call(op, *args)
            replica = cluster.survivor_replicas(0)[0]
            length = len(replica.store.log)
            assert len(replica.store.log) == length
            entries = list(replica.store.log)
            assert replica.store.log[:length] == entries
            assert len(replica.store.log) == length == len(entries)
            assert calls == ["survivor_replicas", "log_len", "log_len", "log"]
            return entries

    entries = _run(scenario())
    assert any(command.command_id.startswith("v") for command in entries)


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda _pid: ())(0)) < 2,
    reason="hosts are pinned only with two CPUs or more",
)
def test_hosts_take_the_callers_cpus_in_turn():
    cpus = sorted(os.sched_getaffinity(0))

    async def scenario():
        async with ShardedCluster(3, 3, _factory()) as cluster:
            return [
                os.sched_getaffinity(cluster.clusters[group].process_pid)
                for group in range(3)
            ]

    assert _run(scenario()) == [{cpus[group % len(cpus)]} for group in range(3)]
    assert sorted(os.sched_getaffinity(0)) == cpus
