"""Tests for the one fork runner behind explore and fuzz."""

import multiprocessing
import os

import pytest

from repro.verify import run_shards
from repro.verify import runner


def _shard(spec, index):
    return spec["scale"] * index, os.getpid()


class TestRunShards:
    def test_one_worker_runs_in_process(self):
        assert run_shards(_shard, {"scale": 3}, 1) == [(0, os.getpid())]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_workers_fork_and_return_in_index_order(self):
        offset = 5
        # A closure cannot be pickled: the fork inherits the parked spec.
        results = run_shards(
            lambda spec, index: (spec["scale"] * index + offset, os.getpid()),
            {"scale": 2},
            3,
        )
        assert [value for value, _ in results] == [5, 7, 9]
        assert all(pid != os.getpid() for _, pid in results)
        assert runner._PARKED is None

    def test_without_fork_the_shards_run_here_in_order(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        results = run_shards(_shard, {"scale": 3}, 3)
        assert results == [(0, os.getpid()), (3, os.getpid()), (6, os.getpid())]
