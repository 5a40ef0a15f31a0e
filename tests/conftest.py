"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import socket

import pytest

from repro.omega import lowest_correct_omega_factory, static_omega_factory
from repro.protocols import twostep_object_factory, twostep_task_factory


@pytest.fixture
def f2e2():
    """The workhorse configuration: f = e = 2."""
    return {"f": 2, "e": 2}


@pytest.fixture
def task_factory_6():
    """Figure 1 task variant at its bound n = 2e+f = 6 (f = e = 2)."""

    def build(proposals, faulty=frozenset()):
        return twostep_task_factory(
            proposals,
            2,
            2,
            omega_factory=lowest_correct_omega_factory(set(faulty)),
        )

    return build


@pytest.fixture
def object_factory_5():
    """Figure 1 object variant at its bound n = max(2e+f-1, 2f+1) = 5."""

    def build(faulty=frozenset()):
        return twostep_object_factory(
            2,
            2,
            omega_factory=lowest_correct_omega_factory(set(faulty)),
        )

    return build


def _free_port_block(count):
    """A first port P such that P..P+count-1 are all free right now."""
    for _attempt in range(50):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            first = probe.getsockname()[1]
        held = []
        try:
            for port in range(first, first + count):
                held.append(socket.socket())
                held[-1].bind(("127.0.0.1", port))
            return first
        except (OSError, OverflowError):
            continue
        finally:
            for sock in held:
                sock.close()
    pytest.skip("no block of free ports found")


@pytest.fixture
def free_port_block():
    """``count -> P``: the first of *count* consecutive free ports."""
    return _free_port_block
