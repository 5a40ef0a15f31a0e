"""Live cluster runtime: Figure 1's state machines over asyncio TCP.

Everything the simulator runs, this package runs over real sockets with
the code of the protocols unchanged:

* :mod:`~repro.net.codec` — length-prefixed wire frames (binary v2, the
  one body format) over the repository's whole message vocabulary;
* :mod:`~repro.net.wire` — the handshake and client-protocol frames the
  runtime adds on top;
* :mod:`~repro.net.transport` — a node's sockets (:class:`Transport`):
  listen, :func:`dial` and the hello handshake, peer and client links
  with one coalescing writer loop and one read loop, and the durable
  hold;
* :mod:`~repro.net.node` — one process per :class:`NodeServer`, with the
  :class:`~repro.core.process.Context` adapted onto its transport and
  ``loop.call_later`` timers (simulator-identical semantics);
* :mod:`~repro.net.service` — :class:`KVService`, what a node does with
  a client's submit: the trust check, the replica submit, the reply;
* :mod:`~repro.net.client` — KV client with one pipelined request path:
  timeouts, retry/backoff, and proxy failover;
* :mod:`~repro.net.loadgen` — the one load generator, for one group or
  G groups (closed loop or pipelined), replaying the simulator's seeded
  workloads for like-for-like latency tables;
* :mod:`~repro.net.cluster` — :class:`LocalCluster`, the in-process
  harness tests, CI and ``repro cluster`` boot (real TCP, one event
  loop, no subprocesses); a G-group deployment runs one per group,
  each in its own forked host process
  (:class:`~repro.shard.ShardedCluster`);
* :mod:`~repro.net.stats` / :mod:`~repro.net.top` — one scrape view
  for one group or G groups, behind ``repro stats``, ``repro top`` and
  ``loadgen --stats``.

This layer is beyond-paper engineering: the paper's claims are about the
protocols, which stay byte-identical; see ``docs/PAPER_MAP.md``.
"""

from .client import ClientError, KVClient, PipelineError, parse_address_list
from .cluster import ClusterStartError, LocalCluster
from .codec import (
    CodecError,
    FrameDecoder,
    MessageCodec,
    MessageRegistry,
    default_registry,
)
from .loadgen import LoadReport, run_loadgen
from .netlog import configure_logging, node_logger
from .node import NodeServer
from .service import KVService
from .stats import describe_cluster_stats, fetch_node_stats, scrape_cluster
from .top import render_top, run_top
from .transport import Address, HandshakeRefused, Transport, dial, enable_nodelay
from .wire import (
    ClientHello,
    ClientReply,
    ClientSubmit,
    NodeHello,
    SnapshotChunk,
    SnapshotRequest,
    StatsReply,
    StatsRequest,
    Traced,
)

__all__ = [
    "Address",
    "ClientError",
    "ClientHello",
    "ClientReply",
    "ClientSubmit",
    "ClusterStartError",
    "CodecError",
    "FrameDecoder",
    "HandshakeRefused",
    "KVClient",
    "KVService",
    "LoadReport",
    "LocalCluster",
    "MessageCodec",
    "MessageRegistry",
    "NodeHello",
    "NodeServer",
    "PipelineError",
    "SnapshotChunk",
    "SnapshotRequest",
    "StatsReply",
    "StatsRequest",
    "Traced",
    "Transport",
    "configure_logging",
    "default_registry",
    "dial",
    "describe_cluster_stats",
    "enable_nodelay",
    "fetch_node_stats",
    "node_logger",
    "parse_address_list",
    "render_top",
    "run_loadgen",
    "run_top",
    "scrape_cluster",
]
