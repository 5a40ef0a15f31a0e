"""Frozen definitions: the cluster, the four workloads, every metric name.

This file is the single place a name, unit, direction or bound is
written down. ``BENCHMARK.json`` repeats the same tables for the driver
(``tests/test_e2e_contract.py`` holds the two equal), ``run.py`` prints
from them, and ``--compare`` reads its bounds from them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Tuple

# ----------------------------------------------------------------------
# Fixed configuration shared by all four workloads.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterConfig:
    """The deployment every workload boots (per consensus group)."""

    n: int = 3
    f: int = 1
    e: int = 1
    delta_s: float = 0.05
    batch_size: int = 128
    window: int = 1
    codec: str = "binary"
    proxy: int = 0
    #: The live stack has no delay shim, so latency is processor time.
    injected_delay_ms: float = 0.0
    #: kv_durable only.
    snapshot_every: int = 256
    #: kv_sharded only.
    hash_slots: int = 64


CLUSTER = ClusterConfig()

KEY_SPACE = 1024
PUT_FRACTION = 0.7
VALUE_BYTES = 16
WARMUP_COMMANDS = 2000
#: One repeat is one fresh subprocess measuring for this long; a run of
#: ``--seconds S`` makes ``S / REPEAT_SECONDS`` repeats. Five 4 s repeats
#: (the driver's 20 s runs, and a full record) are what the driver's time
#: cap allows: 92 runs of about 27 s. Medians of five are markedly
#: steadier on the reference box than medians of three 5 s repeats,
#: whose spread the minute-scale speed changes of the box dominate.
REPEAT_SECONDS = 4.0
FULL_REPEATS = 5
#: ``peak_rss_mb`` is read when this many timed commands have completed
#: (at the window's end if fewer do), so it is the memory of a fixed
#: amount of work: a change that raises throughput is not charged for
#: the extra commands it fits into the window.
RSS_MARK_COMMANDS = 10_000


@dataclass(frozen=True)
class WorkloadSpec:
    """One traffic mix. Only what differs between workloads is a field."""

    name: str
    why: str
    #: ``closed``: each connection keeps ``outstanding`` commands in
    #: flight. ``paced``: open loop, ``rate`` commands/s over all
    #: connections on a seeded schedule, timed from the due instant
    #: (``outstanding`` then only shapes the closed-loop warm-up).
    mode: str
    connections: int
    outstanding: int = 64
    rate: float = 0.0
    durable: bool = False
    groups: int = 1
    #: Commands handed to one ``run_pipelined`` call. The window drains
    #: once per chunk, so chunks are sized to make that under 1 % of
    #: the slots while keeping the generator's live set small.
    chunk: int = 8192

    def to_record(self) -> Dict[str, Any]:
        return asdict(self)


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="kv_saturate",
        why=(
            "closed loop, 2 connections x 64 outstanding, no WAL: batches "
            "fill to 128, so per-command costs dominate (codec bodies, "
            "kvstore apply, reply flushing)"
        ),
        mode="closed",
        connections=2,
    ),
    WorkloadSpec(
        name="kv_durable",
        why=(
            "the same load with the WAL on and fsync=True: the only "
            "workload where repro.storage works (append, group commit, "
            "fsync, snapshot rotation), then kill -9 all nodes and recover"
        ),
        mode="closed",
        connections=2,
        durable=True,
    ),
    WorkloadSpec(
        name="kv_paced",
        why=(
            "open loop at 400 cmds/s, timed from the due instant: batches "
            "hold about one command, so per-slot and per-message costs "
            "dominate and codec bodies and storage do little"
        ),
        mode="paced",
        connections=2,
        rate=400.0,
    ),
    WorkloadSpec(
        name="kv_sharded",
        why=(
            "2 groups x 3 replicas behind one ShardRouter (window 128), "
            "both groups on one event loop: the regime process-per-group "
            "should move and the other three workloads bypass"
        ),
        mode="closed",
        connections=2,
        outstanding=128,
        groups=2,
        chunk=16384,
    ),
)

WORKLOADS_BY_NAME: Dict[str, WorkloadSpec] = {w.name: w for w in WORKLOADS}


# ----------------------------------------------------------------------
# Metric tables.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which the metric may get worse.
    #: ``None`` for per-layer metrics, which are explanations, not gates.
    bound: Optional[float] = None


#: What a user of the replicated KV sees. ``failed_frac`` from the issue
#: is always 0 on these fault-free workloads, and the driver's contract
#: wants end-to-end metrics that are never 0, so it travels as the
#: ``attempted`` / ``failed`` / ``correct`` fields of the result line
#: (bound: 0 absolute — any failure fails the run) instead of a row here.
#:
#: The issue asked for 0.10 everywhere, "widened only with measured spread
#: written next to it". Measured on the reference box — two sets of ten
#: runs per workload (runs/reference-{a,b}.json), worst workload of either
#: set; the README's "Steadiness" table has every cell:
#:   throughput_cmds_s 0.204, client_p50_ms 0.208 (kv_durable),
#:   cpu_us_per_cmd 0.138 (kv_sharded), setup_s 0.198, peak_rss_mb 0.004;
#:   medians moved by up to 0.243 between the sets (kv_sharded).
#: The box's speed on a saturated loop shifts by 20 % and more for minutes
#: at a time, which no statistic inside one run can average out, so the
#: timing metrics take the widest bound the contract allows.
END_TO_END: Tuple[Metric, ...] = (
    Metric("throughput_cmds_s", "cmds/s", "higher", 0.25),
    Metric("client_p50_ms", "ms", "lower", 0.25),
    Metric("cpu_us_per_cmd", "us", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("setup_s", "s", "lower", 0.25),
)

PER_LAYER: Tuple[Metric, ...] = (
    # net.client + the benchmark's own generator.
    Metric("loadgen.self_us_per_cmd", "us", "lower"),
    Metric("loadgen.late_p99_ms", "ms", "lower"),
    Metric("loadgen.client_p99_ms", "ms", "lower"),
    Metric("loadgen.client_max_ms", "ms", "lower"),
    Metric("loadgen.over_50ms_frac", "ratio", "lower"),
    # net.codec
    Metric("codec.encode_us_per_cmd", "us", "lower"),
    Metric("codec.decode_us_per_cmd", "us", "lower"),
    Metric("codec.encode_calls_per_cmd", "count", "lower"),
    Metric("codec.decode_calls_per_cmd", "count", "lower"),
    Metric("codec.bytes_per_cmd", "bytes", "lower"),
    Metric("codec.msgs_per_feed", "count", "higher"),
    # net.node + event loop + interpreter runtime
    Metric("node.ctx_us_per_cmd", "us", "lower"),
    Metric("node.msgs_sent_per_cmd", "count", "lower"),
    Metric("node.bytes_sent_per_cmd", "bytes", "lower"),
    Metric("node.outbox_hwm", "count", "lower"),
    Metric("node.queue_ms_p50", "ms", "lower"),
    Metric("node.unattributed_us_per_cmd", "us", "lower"),
    Metric("runtime.loop_lag_ms_p99", "ms", "lower"),
    Metric("runtime.gc_pause_frac", "ratio", "lower"),
    Metric("runtime.gc_gen2_count", "count", "lower"),
    Metric("runtime.gc_max_pause_ms", "ms", "lower"),
    # smr.log
    Metric("smr.handler_us_per_cmd", "us", "lower"),
    Metric("smr.cmds_per_slot", "count", "higher"),
    Metric("smr.slots_per_s", "1/s", "higher"),
    Metric("smr.commit_ms_p50", "ms", "lower"),
    Metric("smr.gap_repair_noops", "count", "lower"),
    # protocols.twostep
    Metric("consensus.handler_us_per_slot", "us", "lower"),
    Metric("consensus.handler_us_per_cmd", "us", "lower"),
    Metric("consensus.msgs_per_slot", "count", "lower"),
    Metric("consensus.fast_path_ratio", "ratio", "higher"),
    Metric("consensus.timers_fired", "count", "lower"),
    # smr.kvstore
    Metric("kvstore.apply_us_per_cmd", "us", "lower"),
    Metric("kvstore.dup_suppressed", "count", "lower"),
    # repro.storage (kv_durable only)
    Metric("storage.append_us_per_cmd", "us", "lower"),
    Metric("storage.commit_cpu_us_per_cmd", "us", "lower"),
    Metric("storage.commit_ms_p50", "ms", "lower"),
    Metric("storage.commit_wall_frac", "ratio", "lower"),
    Metric("storage.fsyncs_per_cmd", "count", "lower"),
    Metric("storage.records_per_commit", "count", "higher"),
    Metric("storage.wal_bytes_per_cmd", "bytes", "lower"),
    Metric("storage.snapshot_us_per_cmd", "us", "lower"),
    Metric("storage.snapshot_s_total", "s", "lower"),
    Metric("storage.snapshots_written", "count", "lower"),
    Metric("storage.recover_s", "s", "lower"),
    # repro.shard (kv_sharded only)
    Metric("shard.route_us_per_cmd", "us", "lower"),
    Metric("shard.redirects", "count", "lower"),
    Metric("shard.group_imbalance", "ratio", "lower"),
    # repro.obs
    Metric("obs.calls_per_cmd", "count", "lower"),
    Metric("obs.est_us_per_cmd", "us", "lower"),
    # the tracer itself
    Metric("trace.overhead_frac", "ratio", "lower"),
)

#: The per-layer metrics that are CPU self times per command. Together
#: with ``node.unattributed_us_per_cmd`` they sum to the traced run's
#: ``cpu_us_per_cmd`` by construction (see ``repeat.layer_metrics``).
BUDGET: Tuple[str, ...] = (
    "loadgen.self_us_per_cmd",
    "codec.encode_us_per_cmd",
    "codec.decode_us_per_cmd",
    "node.ctx_us_per_cmd",
    "smr.handler_us_per_cmd",
    "consensus.handler_us_per_cmd",
    "kvstore.apply_us_per_cmd",
    "storage.append_us_per_cmd",
    "storage.commit_cpu_us_per_cmd",
    "storage.snapshot_us_per_cmd",
    "shard.route_us_per_cmd",
    "node.unattributed_us_per_cmd",
)
