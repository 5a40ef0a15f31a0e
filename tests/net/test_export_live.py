"""Live export pipeline: HTTP /metrics, JSONL time series, `repro top`.

A NodeServer's client port speaks two protocols: length-prefixed frames
and plain HTTP (sniffed from the first four bytes — an ASCII method can
never be a legal frame length).  These tests drive the HTTP side with a
raw socket exactly like a Prometheus scraper would, validate the
exposition format, watch the per-node JSONL time series grow, and
render the `repro top` dashboard from a real scrape.
"""

import asyncio
import json
import pathlib

from repro.net.cluster import LocalCluster
from repro.net.loadgen import run_loadgen
from repro.net.stats import describe_cluster_stats, scrape_cluster
from repro.net.top import render_top, run_top
from repro.obs import export
from repro.omega import static_omega_factory
from repro.protocols.twostep import TwoStepConfig
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


async def _http_get(address, request: bytes) -> bytes:
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(request)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), 10.0)
    finally:
        writer.close()


def _validate_exposition(body: str) -> None:
    """The same structural checks the CI smoke step applies."""
    assert body.strip(), "empty exposition"
    declared = set()
    for line in body.strip().splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            assert kind in ("counter", "gauge", "histogram"), line
            declared.add(name)
            continue
        assert not line.startswith("#"), f"unexpected comment: {line}"
        name = line.split("{")[0].split(" ")[0]
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                break
        assert base in declared, f"sample before TYPE: {line}"
        value = line.rsplit(" ", 1)[1]
        assert value == "+Inf" or float(value) is not None, line
        assert name.startswith("repro_"), line


class TestMetricsEndpoint:
    def test_get_metrics_speaks_prometheus(self):
        async def scenario():
            async with LocalCluster(
                3, _factory(), serve_clients=True
            ) as cluster:
                report = await run_loadgen(
                    {0: cluster.addresses},
                    clients=2,
                    count=30,
                    codec=cluster.codec,
                    client_id_prefix="prom",
                )
                assert report.failed == 0
                raw = await _http_get(
                    cluster.addresses[0],
                    b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
                )
                return raw.decode()

        response = _run(scenario())
        head, _, body = response.partition("\r\n\r\n")
        assert head.startswith("HTTP/1.0 200 OK")
        assert "text/plain; version=0.0.4" in head
        _validate_exposition(body)
        assert 'node="0"' in body
        assert "repro_consensus_decisions_fast" in body
        assert "repro_smr_commit_seconds_bucket" in body

    def test_head_and_unknown_path(self):
        async def scenario():
            async with LocalCluster(
                3, _factory(), serve_clients=True
            ) as cluster:
                head = await _http_get(
                    cluster.addresses[0], b"HEAD /metrics HTTP/1.0\r\n\r\n"
                )
                missing = await _http_get(
                    cluster.addresses[0], b"GET /nope HTTP/1.0\r\n\r\n"
                )
                snapshot = cluster.nodes[0].stats_snapshot()
                return head.decode(), missing.decode(), snapshot

        head, missing, snapshot = _run(scenario())
        assert head.startswith("HTTP/1.0 200 OK")
        assert head.partition("\r\n\r\n")[2] == ""  # HEAD: no body
        assert missing.startswith("HTTP/1.0 404")
        # Scrapes are themselves observable.
        assert snapshot["counters"].get("net.http_scrapes", 0) >= 2

    def test_frame_protocol_unaffected_by_http_support(self):
        async def scenario():
            async with LocalCluster(
                3, _factory(), serve_clients=True
            ) as cluster:
                report = await run_loadgen(
                    {0: cluster.addresses},
                    clients=2,
                    count=20,
                    codec=cluster.codec,
                    client_id_prefix="coexist",
                )
                view = await scrape_cluster(
                    {0: cluster.addresses}, codec=cluster.codec
                )
                return report, view

        report, view = _run(scenario())
        assert report.failed == 0
        assert view["unreachable"] == []


class TestWireInfo:
    def test_snapshot_surfaces_negotiated_codec(self):
        async def scenario():
            async with LocalCluster(
                3, _factory(), serve_clients=True
            ) as cluster:
                await run_loadgen(
                    {0: cluster.addresses},
                    clients=1,
                    count=10,
                    codec=cluster.codec,
                    client_id_prefix="wi",
                )
                view = await scrape_cluster(
                    {0: cluster.addresses}, codec=cluster.codec
                )
                return view

        view = _run(scenario())
        hashes = set()
        for snapshot in view["nodes"].values():
            wire = snapshot["wire"]
            hashes.add(wire["registry_hash"])
            # Linked to both peers each way; the scrape is a client link.
            assert wire["peer_links_out"] == 2
            assert wire["peer_links_in"] == 2
            assert wire["client_links"] >= 1
        assert len(hashes) == 1 and len(hashes.pop()) == 16
        assert "wire: registry " in describe_cluster_stats(view)


class TestTimeseries:
    def test_nodes_append_jsonl_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(export, "TIMESERIES_INTERVAL", 0.1)

        async def scenario():
            async with LocalCluster(
                3, _factory(), serve_clients=True, timeseries_dir=str(tmp_path)
            ) as cluster:
                await run_loadgen(
                    {0: cluster.addresses},
                    clients=1,
                    count=20,
                    codec=cluster.codec,
                    client_id_prefix="ts",
                )
                await asyncio.sleep(0.5)

        _run(scenario())
        for pid in range(3):
            path = pathlib.Path(tmp_path) / f"node-{pid}.jsonl"
            assert path.exists(), f"missing {path}"
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            assert len(rows) >= 2
            assert all(row["node"] == pid for row in rows)
            times = [row["t"] for row in rows]
            assert times == sorted(times)
        # The workload spread across proxies: together their final rows
        # account for every committed command.
        committed = 0
        for pid in range(3):
            rows = [
                json.loads(line)
                for line in (pathlib.Path(tmp_path) / f"node-{pid}.jsonl")
                .read_text()
                .splitlines()
            ]
            committed += rows[-1]["commands_committed"]
        assert committed >= 20


class TestTopView:
    def test_run_top_renders_live_cluster(self):
        async def scenario():
            async with LocalCluster(
                3, _factory(), serve_clients=True
            ) as cluster:
                await run_loadgen(
                    {0: cluster.addresses},
                    clients=2,
                    count=30,
                    codec=cluster.codec,
                    client_id_prefix="top",
                )
                frames = []
                await run_top(
                    {0: cluster.addresses},
                    interval=0.1,
                    iterations=2,
                    codec=cluster.codec,
                    out=frames.append,
                    clear=False,
                )
                return frames

        frames = _run(scenario())
        assert len(frames) == 2
        for frame in frames:
            assert "node   cmds/s" in frame
            assert "n0" in frame and "n2" in frame
            assert "fast-path ratio" in frame
        # Second frame has a previous scrape: rate column is numeric.
        assert "cmds/s;" in frames[1] or "cmds/s" in frames[1].splitlines()[-1]

    def test_render_top_marks_unreachable_nodes(self):
        async def scenario():
            async with LocalCluster(
                3, _factory(), serve_clients=True
            ) as cluster:
                await cluster.crash(2)
                view = await scrape_cluster(
                    {0: cluster.addresses}, codec=cluster.codec
                )
                return view

        view = _run(scenario())
        frame = render_top(view)
        assert "[unreachable]" in frame
        assert "unreachable: [2]" in frame
