"""BENCHMARK.json, the metric tables and the runner agree; --smoke works."""

import json
import pathlib
import re
import subprocess
import sys

import pytest

import run
from workloads import BUDGET, END_TO_END, PER_LAYER, WORKLOADS

E2E_DIR = pathlib.Path(__file__).resolve().parents[1]
REPO = E2E_DIR.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def test_benchmark_json_has_exactly_the_contract_keys(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert benchmark_json["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert benchmark_json["paths"] == ["benchmarks/e2e"]
    assert isinstance(benchmark_json["run_seconds"], int)
    assert 1 <= benchmark_json["run_seconds"] <= 60
    assert (REPO / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_names_are_unique_and_well_formed(benchmark_json):
    names = [
        entry["name"]
        for table in ("workloads", "end_to_end", "per_layer")
        for entry in benchmark_json[table]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for table in ("end_to_end", "per_layer"):
        for entry in benchmark_json[table]:
            assert UNIT.match(entry["unit"]), entry
            assert entry["better"] in ("lower", "higher")
    for workload in benchmark_json["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_benchmark_json_equals_the_tables_in_workloads_py(benchmark_json):
    assert benchmark_json["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS
    ]
    assert benchmark_json["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert benchmark_json["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


def test_bounds_and_setup_metric(benchmark_json):
    assert 2 <= len(benchmark_json["workloads"]) <= 8
    assert 1 <= len(benchmark_json["end_to_end"]) <= 16
    assert 1 <= len(benchmark_json["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in benchmark_json["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    setup = next(m for m in benchmark_json["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert bounds["setup_s"] == max(bounds.values())


def test_budget_names_are_per_layer_metrics():
    assert set(BUDGET) <= {m.name for m in PER_LAYER}


def _run(*args, timeout=120):
    return subprocess.run(
        [sys.executable, str(E2E_DIR / "run.py"), *args],
        cwd=REPO, capture_output=True, text=True, timeout=timeout,
    )


def test_smoke_runs_all_four_workloads_and_prints_every_end_to_end_name():
    done = _run("--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    sections = done.stdout.split("\n== ")[1:]
    assert [section.split(" ")[0] for section in sections] == [w.name for w in WORKLOADS]
    for section in sections:
        for metric in END_TO_END:
            assert re.search(rf"^\s+{re.escape(metric.name)}\s+[\d,.]+ {re.escape(metric.unit)}\s", section, re.M), (
                metric.name, section,
            )
        assert "failed 0 (failed_frac 0)" in section
        assert "checks pass" in section
    assert not list((E2E_DIR / ".data").glob("*")), "a repeat left its data dir behind"


def test_traced_smoke_reports_every_per_layer_name_and_a_closed_budget():
    done = _run("--smoke", "--workload", "kv_durable", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    values = {}
    for metric in PER_LAYER:
        match = re.search(rf"^\s+{re.escape(metric.name)}\s+(\S+) ", done.stdout, re.M)
        assert match, metric.name
        values[metric.name] = match.group(1)
    assert values["shard.redirects"] == "null"  # not a sharded workload
    assert values["storage.fsyncs_per_cmd"] != "null"
    assert float(values["consensus.fast_path_ratio"]) > 0.9


def test_result_line_carries_exactly_the_declared_names():
    summary = {
        "correct": True, "attempted": 10, "failed": 0,
        "end_to_end": {m.name: {"median": 1.5} for m in END_TO_END},
        "per_layer": {m.name: None for m in PER_LAYER},
    }
    plain = json.loads(run.result_line(summary, traced=False))
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert set(plain["metrics"]) == {m.name for m in END_TO_END}
    assert plain["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    traced = json.loads(run.result_line(summary, traced=True))
    assert set(traced["metrics"]) == {m.name for m in PER_LAYER}
    assert all(entry["value"] == 0.0 for entry in traced["metrics"].values())


def _record(tmp_path, name, medians, spread=0.01):
    record = {
        "commit": name, "created_utc": "2026-01-01T00:00:00+00:00",
        "workloads": {
            w.name: {
                "failed": 0, "correct": True,
                "end_to_end": {
                    m.name: {"median": medians[m.name], "spread": spread} for m in END_TO_END
                },
            }
            for w in WORKLOADS
        },
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(record))
    return str(path)


def test_compare_applies_the_regression_rule(tmp_path, capsys):
    base = {m.name: 100.0 for m in END_TO_END}
    same = _record(tmp_path, "same", base)
    assert run.compare(_record(tmp_path, "base", base), same) == 0
    assert "regressed" not in capsys.readouterr().out
    bound = next(m.bound for m in END_TO_END if m.name == "throughput_cmds_s")
    slower = dict(base, throughput_cmds_s=100.0 * (1 - bound - 0.05))
    assert run.compare(same, _record(tmp_path, "slower", slower)) == 1
    out = capsys.readouterr().out
    assert out.count("regressed") == len(WORKLOADS)
    faster = dict(base, throughput_cmds_s=150.0, client_p50_ms=50.0)
    assert run.compare(same, _record(tmp_path, "faster", faster)) == 0
    noisy = _record(tmp_path, "noisy", base, spread=0.5)
    assert run.compare(same, noisy) == 1
    assert "unresolved" in capsys.readouterr().out
