"""Tests for the `python -m repro` command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main


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
        # The JSON rows are the same records the text tables render.
        assert main(["experiment", "e2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["tables"]) == 2  # E2 prints two tables

    def test_unknown_experiment_still_errors_with_json(self, capsys):
        assert main(["experiment", "e99", "--json"]) == 2
        assert "unknown experiment" in capsys.readouterr().out


class TestClusterCli:
    def test_node_mode_requires_peers(self, capsys):
        assert main(["cluster", "--node", "0"]) == 2
        assert "--peers" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value", [("--trace-sample", "4"), ("--timeseries", "ts")]
    )
    def test_sharded_cluster_refuses_flags_it_would_drop(self, flag, value, capsys):
        argv = ["cluster", "--groups", "2", "--duration", "0", flag, value]
        assert main(argv) == 2
        assert flag in capsys.readouterr().out

    def test_sharded_loadgen_refuses_trace_sample(self, capsys):
        peers = "127.0.0.1:1,127.0.0.1:2;127.0.0.1:3,127.0.0.1:4"
        argv = ["loadgen", "--peers", peers, "--count", "1", "--timeout", "0.1",
                "--trace-sample", "4"]
        assert main(argv) == 2
        assert "--trace-sample" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["cluster", "stats", "loadgen"])
    def test_trace_flag_is_gone(self, command, capsys):
        argv = [command, "--trace"]
        if command != "cluster":
            argv += ["--peers", "127.0.0.1:1"]
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "--trace" in capsys.readouterr().err

    def test_loadgen_parser_defaults(self):
        args = build_parser().parse_args(
            ["loadgen", "--peers", "127.0.0.1:9400,127.0.0.1:9401"]
        )
        assert args.clients == 4
        assert args.count == 100
        assert args.json is False


class TestReport:
    def test_report_quick_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["report", "--quick", "-o", str(target)]) == 0
        text = target.read_text()
        assert text.startswith("# Reproduction report")
        assert text.count("**Verdict:**") == 11
        assert "AGREEMENT VIOLATION (as the theorem predicts)" in text
        assert "SATISFIED" in text

    def test_generate_report_function(self):
        from repro.analysis import generate_report

        text = generate_report(quick=True)
        assert "E1 — bounds table" in text
        assert "E10 — geo-replicated KV service" in text
