"""Tests for the `python -m repro` command-line interface."""

import argparse
import asyncio
import contextlib
import json
import os
import pathlib
import socket
import subprocess
import sys
import threading
import types
from dataclasses import fields

import pytest

from repro.__main__ import ClusterSettings, LoadSettings, build_parser, main
from repro.analysis import EXPERIMENTS
from repro.net.cluster import LocalCluster
from repro.net.codec import MessageCodec
from repro.net.loadgen import run_loadgen
from repro.net.stats import fetch_node_stats
from repro.omega import static_omega_factory
from repro.protocols.twostep import TwoStepConfig
from repro.shard import ShardedCluster
from repro.smr.log import smr_factory

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")
RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"

# One group, and two groups separated by ';'. Nothing listens on either.
PEER_FORMS = ["127.0.0.1:1", "127.0.0.1:1;127.0.0.1:2"]


class TestParser:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "e1" in out and "e10" in out

    def test_bounds(self, capsys):
        assert main(["bounds"]) == 0
        out = capsys.readouterr().out
        assert "lamport" in out and "object(Thm6)" in out

    def test_experiment_e1(self, capsys):
        assert main(["experiment", "e1"]) == 0
        assert "E1" in capsys.readouterr().out

    @pytest.mark.parametrize("key", list(EXPERIMENTS))
    def test_experiment_prints_its_checked_in_results_file(self, key, capsys):
        assert main(["experiment", key]) == 0
        expected = RESULTS / f"{EXPERIMENTS[key].results}.txt"
        assert capsys.readouterr().out == expected.read_text()

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "e99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_witness_task(self, capsys):
        assert main(["witness", "task", "2", "2"]) == 0
        out = capsys.readouterr().out
        assert "AGREEMENT VIOLATION" in out

    def test_witness_object(self, capsys):
        assert main(["witness", "object", "3", "3"]) == 0
        assert "AGREEMENT VIOLATION" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestJsonOutput:
    def test_bounds_json_parses(self, capsys):
        assert main(["bounds", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "e1"
        (rows,) = payload["tables"].values()
        assert rows and {"f", "e", "lamport"} <= set(rows[0])

    def test_experiment_json_parses(self, capsys):
        assert main(["experiment", "e1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"tables"}
        (rows,) = payload["tables"].values()
        assert isinstance(rows, list) and isinstance(rows[0], dict)

    def test_experiment_json_matches_text_rows(self, capsys):
        # The JSON tables are the ones the text renders, under the same titles.
        assert main(["experiment", "e5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["experiment", "e5"]) == 0
        text = capsys.readouterr().out
        assert len(payload["tables"]) == 2  # E5 prints two tables
        assert all(f"{title}\n{'=' * len(title)}\n" in text for title in payload["tables"])

    def test_unknown_experiment_still_errors_with_json(self, capsys):
        assert main(["experiment", "e99", "--json"]) == 2
        assert "unknown experiment" in capsys.readouterr().out


class TestClusterCli:
    def test_node_mode_requires_peers(self, capsys):
        assert main(["cluster", "--node", "0"]) == 2
        assert "--peers" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", "0"], "need at least one node"),
            (["--snapshot-every", "0", "--data-dir", "DIR"], "snapshot_every must"),
            (["--groups", "2", "--slots", "1"], "need at least one slot per group"),
            (["--groups", "0"], "need at least one group"),
            (["--groups", "-2"], "need at least one group"),
        ],
        ids=["n-0", "snapshot-every-0", "slots-1", "groups-0", "groups-neg"],
    )
    def test_bad_cluster_input_exits_2_in_one_line(
        self, flags, message, tmp_path, capsys
    ):
        argv = ["cluster", "--duration", "0.5", "--base-port", "0"] + [
            str(tmp_path) if flag == "DIR" else flag for flag in flags
        ]
        assert main(argv) == 2
        out = capsys.readouterr().out.strip()
        assert out.startswith(message) and "\n" not in out

    def test_node_mode_refuses_a_pid_outside_peers(self, capsys):
        argv = ["cluster", "--node", "3", "--peers", "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3"]
        assert main(argv) == 2
        out = capsys.readouterr().out.strip()
        assert out.startswith("--node 3 is not a pid") and "\n" not in out

    def test_node_mode_refuses_groups(self, capsys):
        argv = ["cluster", "--node", "0", "--groups", "2", "--peers", "127.0.0.1:1"]
        assert main(argv) == 2
        assert "--groups" in capsys.readouterr().out

    @pytest.mark.parametrize("peers", PEER_FORMS)
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--pipeline", "0", "must be >= 1"),
            ("--clients", "0", "must be >= 1"),
            ("--trace-sample", "-1", "must be >= 0"),
            ("--key-space", "0", "must be >= 1"),
            ("--key-skew", "zipf:x", "expects zipf:<exponent>"),
        ],
    )
    def test_loadgen_rejects_bad_input_before_dialing(
        self, peers, flag, value, message, capsys
    ):
        argv = ["loadgen", "--peers", peers, "--timeout", "0.1", flag, value]
        assert main(argv) == 2
        out = capsys.readouterr().out.strip()
        assert out.startswith(f"{flag} {message}") and "\n" not in out

    @pytest.mark.parametrize("command", ["loadgen", "stats", "top"])
    @pytest.mark.parametrize(
        "peers", ["bogus", "127.0.0.1:1;bogus", "127.0.0.1:70000", "127.0.0.1:0"]
    )
    def test_bad_peers_exit_2_in_one_line(self, command, peers, capsys):
        assert main([command, "--peers", peers]) == 2
        out = capsys.readouterr().out.strip()
        assert out.startswith("--peers: ") and "\n" not in out

    def test_loadgen_unreachable_catalog_fails_in_one_line(self, capsys):
        argv = ["loadgen", "--peers", PEER_FORMS[1], "--timeout", "0.1"]
        assert main(argv) == 1
        out = capsys.readouterr().out.strip()
        assert out.startswith("loadgen: ") and "\n" not in out

    @pytest.mark.parametrize("command", ["cluster", "stats", "loadgen"])
    def test_trace_flag_is_gone(self, command, capsys):
        argv = [command, "--trace"]
        if command != "cluster":
            argv += ["--peers", "127.0.0.1:1"]
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "--trace" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "settings_cls, required, pinned, recorded",
        [
            (ClusterSettings, {}, {"n": 3, "base_port": 9400}, set()),
            (
                LoadSettings,
                {"peers": "127.0.0.1:9400,127.0.0.1:9401"},
                {"clients": 4, "count": 100, "json": False},
                {
                    "clients", "count", "key_skew", "key_space", "pipeline",
                    "pin_proxy", "put_fraction", "seed", "trace_sample",
                },
            ),
        ],
        ids=["cluster", "loadgen"],
    )
    def test_settings_parser_defaults(
        self, settings_cls, required, pinned, recorded, monkeypatch, capsys
    ):
        command = "cluster" if settings_cls is ClusterSettings else "loadgen"
        argv = [command] + [arg for k, v in required.items() for arg in (f"--{k}", v)]
        parser = build_parser()
        # The minimal argv parses to the settings class's own defaults.
        defaults = settings_cls(**required)
        assert settings_cls.from_args(parser.parse_args(argv)) == defaults
        assert {name: getattr(defaults, name) for name in pinned} == pinned
        # Every field is exactly one flag, and every flag is a field.
        (subparsers,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        flags = [a for a in subparsers.choices[command]._actions if a.dest != "help"]
        assert [a.option_strings for a in flags] == [
            ["--" + spec.name.replace("_", "-")] for spec in fields(settings_cls)
        ]
        assert [a.dest for a in flags] == [spec.name for spec in fields(settings_cls)]
        assert {
            spec.name for spec in fields(settings_cls) if spec.metadata["recorded"]
        } == recorded
        if not recorded:
            return
        # loadgen --json records exactly the recorded fields as its config.
        async def no_run(groups, **kwargs):
            return types.SimpleNamespace(to_record=dict, errors=[], failed=0)

        monkeypatch.setattr("repro.net.loadgen.run_loadgen", no_run)
        assert main(argv + ["--json"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config == {name: getattr(defaults, name) for name in recorded}


def _factory():
    delta = 0.05
    return smr_factory(
        1,
        1,
        delta=delta,
        omega_factory=static_omega_factory(0),
        consensus_config=TwoStepConfig(f=1, e=1, delta=delta, is_object=True),
    )


@contextlib.contextmanager
def _serving(cluster):
    """Serve *cluster* while the CLI runs in this thread.

    A sharded deployment serves from its group hosts, so starting it
    here is enough (and forks with no other thread alive); a single
    cluster runs on its own event loop thread.
    """
    if isinstance(cluster, ShardedCluster):
        asyncio.run(cluster.start())
        try:
            yield cluster
        finally:
            asyncio.run(cluster.stop())
        return
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(cluster.start(), loop).result(60)
        yield cluster
    finally:
        asyncio.run_coroutine_threadsafe(cluster.stop(), loop).result(60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        assert not thread.is_alive(), "cluster event loop did not stop"
        loop.close()


def _peers(cluster):
    return ";".join(
        ",".join(f"{host}:{port}" for host, port in addresses)
        for _group, addresses in sorted(cluster.addresses_by_group.items())
    )


class TestShardedClusterCli:
    """`cluster --groups G` takes every node flag a single cluster takes."""

    def test_groups_take_base_port_trace_sample_and_timeseries(
        self, tmp_path, free_port_block
    ):
        groups, n = 2, 3
        base = free_port_block(groups * n)
        layout = {
            group: [("127.0.0.1", base + group * n + i) for i in range(n)]
            for group in range(groups)
        }
        argv = [
            "cluster", "--groups", str(groups), "--n", str(n),
            "--base-port", str(base), "--trace-sample", "1",
            "--timeseries", str(tmp_path), "--duration", "6",
        ]
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        out = ""
        try:
            # The peers line is printed once the catalog is seeded.
            while "peers: " not in out:
                line = process.stdout.readline()
                assert line, f"cluster never came up: {out!r}"
                out += line

            codec = MessageCodec()

            async def drive():
                # Group 1's node 0 answers on base + n.
                reply = await fetch_node_stats(layout[1][0], codec, timeout=5.0)
                assert reply.pid == 0
                return await run_loadgen(
                    layout, clients=2, count=24, keys=[f"k{i}" for i in range(8)],
                    pipeline=4, trace_sample=1, codec=codec,
                )

            report = asyncio.run(drive())
        finally:
            rest, errors = process.communicate(timeout=30)
        out += rest
        assert process.returncode == 0, errors
        peers = ";".join(
            ",".join(f"{host}:{port}" for host, port in layout[group])
            for group in range(groups)
        )
        assert f"peers: {peers}\n" in out
        assert report.failed == 0, report.errors
        # Spans were recorded in both groups: origins are tagged node ids.
        origins = {path["origin"].split(":")[0] for path in report.trace_paths}
        assert origins == {f"g{group}" for group in range(groups)}
        for group in range(groups):
            for pid in range(n):
                assert (tmp_path / f"group-{group}" / f"node-{pid}.jsonl").is_file()


def _repro(*argv, **popen):
    """``python -m repro *argv`` as a child process with text pipes."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        **popen,
    )


class TestClusterStartFailure:
    """A deployment that cannot bind exits 1 with one line, no traceback."""

    @pytest.mark.parametrize("groups", [1, 2])
    def test_held_port_exits_with_one_line(self, groups, free_port_block):
        n = 3
        base = free_port_block(groups * n)
        held = base + (groups - 1) * n  # the last group's node 0
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", held))
            holder.listen()
            process = _repro(
                "cluster", "--groups", str(groups), "--n", str(n),
                "--base-port", str(base), "--duration", "1",
            )
            out, errors = process.communicate(timeout=60)
        assert process.returncode == 1, (out, errors)
        assert "Traceback" not in out + errors, errors
        lines = out.strip().splitlines()
        assert len(lines) == 1, out
        where = "node 0 failed to start" if groups == 1 else "group 1: node 0 failed to start"
        assert lines[0].startswith(where), lines[0]

    def test_held_port_in_node_mode_exits_with_one_line(self, free_port_block):
        base = free_port_block(3)
        peers = ",".join(f"127.0.0.1:{base + pid}" for pid in range(3))
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", base + 1))
            holder.listen()
            process = _repro("cluster", "--node", "1", "--peers", peers, "--duration", "1")
            out, errors = process.communicate(timeout=60)
        assert process.returncode == 1, (out, errors)
        assert "Traceback" not in out + errors, errors
        assert out.startswith("node 1 failed to start") and out.count("\n") == 1, out


class TestNodeDeployment:
    """``cluster --node i --peers ...``: one process per node."""

    def test_three_node_processes_serve_a_loadgen(self, free_port_block):
        base = free_port_block(3)
        peers = ",".join(f"127.0.0.1:{base + pid}" for pid in range(3))
        nodes = [
            _repro("cluster", "--node", str(pid), "--peers", peers, "--duration", "3")
            for pid in range(3)
        ]
        try:
            for pid, node in enumerate(nodes):
                line = node.stdout.readline()
                assert line == f"node {pid} serving on 127.0.0.1:{base + pid}\n", line
            load = _repro("loadgen", "--peers", peers, "--count", "20")
            load_out, load_errors = load.communicate(timeout=60)
        finally:
            outputs = [node.communicate(timeout=30) for node in nodes]
        assert load.returncode == 0, (load_out, load_errors)
        assert "Traceback" not in load_errors, load_errors
        for node, (_out, errors) in zip(nodes, outputs):
            assert node.returncode == 0, errors
            # Reaching --duration stops the node's own connection tasks:
            # none is left for the loop's shutdown to cancel and log.
            assert "Traceback" not in errors, errors


class TestLoadgenCliLive:
    """Every loadgen flag applies to both peer forms."""

    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("pipeline", ["1", "4"])
    def test_every_flag_on_both_peer_forms(self, groups, pipeline, capsys):
        cluster = (
            LocalCluster(3, _factory(), serve_clients=True)
            if groups == 1
            else ShardedCluster(groups, 3, _factory(), slots=16)
        )
        with _serving(cluster):
            argv = [
                "loadgen", "--peers", _peers(cluster), "--clients", "2",
                "--count", "40", "--pipeline", pipeline, "--pin-proxy", "-1",
                "--key-space", "8", "--key-skew", "zipf:0.5", "--stats",
                "--trace-sample", "4", "--json",
            ]
            assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        record = payload["loadgen"]
        assert record["completed"] == 40
        assert sorted(record["group_commands"]) == [str(g) for g in range(groups)]
        assert record["pipeline"] == int(pipeline)
        assert record["fast_path_ratio"] is not None
        # The nodes record no spans: sampling is on, and finds nothing.
        assert record["traced_commands"] == 0
        assert payload["config"]["key_space"] == 8


class TestReport:
    def test_report_quick_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "--quick", "-o", str(target)]) == 0
        text = target.read_text()
        assert text.startswith("# Reproduction report")
        assert text.count("**Verdict:**") == 11
        assert "**Verdict:** both bounds hold upward and bite downward" in text
        assert "MISMATCH" not in text

    def test_generate_report_function(self):
        from repro.analysis import generate_report

        text = generate_report(quick=True)
        assert "## E1 — tight bounds per (f, e)" in text
        assert "## E10 — geo-replicated KV (ms)" in text

    def test_e2_verdict_is_computed_from_its_rows(self):
        from repro.analysis.report import MISMATCH

        entry = EXPERIMENTS["e2"]
        good = {
            "two_step_at_bound": True,
            "battery_green": True,
            "violation_below_bound": None,  # no witness applies
        }
        assert entry.judge(([good, {**good, "violation_below_bound": True}],)) == (
            entry.verdict
        )
        for column in ("two_step_at_bound", "battery_green", "violation_below_bound"):
            assert entry.judge(([good, {**good, column: False}],)) == MISMATCH
