"""The one fork runner behind both verification engines.

A campaign is split into ``workers`` shards, and shard ``i`` is the pure
function ``shard(spec, i)``: the explorer's shard searches every
``workers``-th root branch, the fuzzer's runs every ``workers``-th seed.
:func:`run_shards` runs them and hands the results back in index order,
so an engine has one code path whatever the worker count — ``workers=1``
is the same shard code, in-process.

Factories are closures in practice, so a spec cannot travel through a
pickle channel: it is parked in a module global immediately before the
fork-context pool is created and the workers inherit it.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, List, Optional, Tuple, TypeVar

S = TypeVar("S")
R = TypeVar("R")

_PARKED: Optional[Tuple[Callable, object]] = None


def _run_parked(index: int):
    shard, spec = _PARKED
    return shard(spec, index)


def run_shards(shard: Callable[[S, int], R], spec: S, workers: int) -> List[R]:
    """``[shard(spec, i) for i in range(workers)]``, forked when it can be.

    ``workers > 1`` runs the shards on a fork pool; at one worker, or
    where the platform cannot fork, they run here in index order.
    """
    global _PARKED
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        _PARKED = (shard, spec)
        try:
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                return pool.map(_run_parked, range(workers))
        except OSError:  # pragma: no cover - fork denied at runtime
            pass
        finally:
            _PARKED = None
    return [shard(spec, index) for index in range(workers)]
