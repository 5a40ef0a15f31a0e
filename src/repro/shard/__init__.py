"""repro.shard — sharded multi-group SMR: placement, routing, rebalancing.

One Figure 1 consensus group caps throughput at a single leader
pipeline. This package partitions the keyspace across many *independent*
groups — each an unchanged :class:`~repro.smr.log.SMRReplica` cluster
with its own WAL, its own Ω, and its own fast-path guarantees — so
aggregate capacity scales with the number of groups while every
intra-group property the paper bounds (Theorems 5/6, checked per group
via the fast-path ratio) carries over untouched.

The moving parts:

* :mod:`~repro.shard.placement` — the epoch-versioned hash-slot
  placement map (key → slot → group);
* :mod:`~repro.shard.catalog` — the catalog authority: the map is
  replicated in one designated group's log under a reserved key, so map
  changes are themselves SMR-committed;
* :mod:`~repro.shard.service` — the shard-aware ``ClientService``: a
  command for a key this group does not own is answered with a
  ``WrongShard`` redirect carrying the newer map;
* :mod:`~repro.shard.router` — the client-side router: per-group
  pipelined connections, redirect-driven map refresh, exactly-once
  retries;
* :mod:`~repro.shard.cluster` — :class:`ShardedCluster`, one
  :class:`~repro.net.cluster.LocalCluster` per group (same node options,
  same convergence wait) plus the catalog seed and range moves;
* :mod:`~repro.shard.rebalance` — the live range mover (fence →
  extract → install → publish → release) with the epoch-fencing rule
  that makes in-flight commands redirect instead of getting lost or
  double-applied.

Nothing else has a sharded twin: ``repro cluster --groups G`` boots a
:class:`ShardedCluster` with the options a single cluster takes,
:func:`repro.net.loadgen.run_loadgen` drives a :class:`ShardRouter` per
worker, and :func:`repro.net.stats.scrape_cluster` (behind ``repro
stats`` and ``repro top``) returns one view, for one group or many.

See ``docs/SHARDING.md`` for the map format, the fencing rule, and the
rebalance sequence.
"""

from .catalog import CATALOG_GROUP, CATALOG_KEY, fetch_placement, publish_placement
from .cluster import ShardedCluster
from .placement import DEFAULT_SLOTS, PlacementMap, RangeAssignment
from .rebalance import MOVE_STAGES, MoveReport, move_range
from .router import ShardRouter, parse_group_addresses
from .service import ShardedKVService

__all__ = [
    "CATALOG_GROUP",
    "CATALOG_KEY",
    "DEFAULT_SLOTS",
    "MOVE_STAGES",
    "MoveReport",
    "PlacementMap",
    "RangeAssignment",
    "ShardRouter",
    "ShardedCluster",
    "ShardedKVService",
    "fetch_placement",
    "move_range",
    "parse_group_addresses",
    "publish_placement",
]
