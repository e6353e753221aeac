"""Shared pytest fixtures; importing ``hypothesis_profiles`` loads the hypothesis profile."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import hypothesis_profiles  # noqa: F401  (registers both profiles, loads one)
from repro.check import check
from repro.cluster import ClusterCoordinator
from repro.server import GameServer
from repro.sim import SimulationEngine

#: suites whose every ticked host must pass ``check``
CHECKED_SUITES = {
    Path(__file__).parent / suite for suite in ("cluster", "faults", "interest", "server")
}


@pytest.fixture(autouse=True)
def ticked_hosts_pass_check(request, monkeypatch):
    """Every host whose ``tick`` ran in the test must pass ``check``.

    A host is checked when the test first ticks another host, and the last
    one at teardown; holding every host to teardown would keep a generated
    test's per-example hosts alive.  Any failure fails the teardown.
    """
    if request.node.path.parent not in CHECKED_SUITES:
        yield
        return
    current, failures = None, []

    def recorded(tick):
        def recorded_tick(host):
            nonlocal current
            if host is not current:
                if current is not None:
                    failures.extend(check(current))
                current = host
            return tick(host)

        return recorded_tick

    monkeypatch.setattr(GameServer, "tick", recorded(GameServer.tick))
    monkeypatch.setattr(ClusterCoordinator, "tick", recorded(ClusterCoordinator.tick))
    yield
    if current is not None:
        failures.extend(check(current))
    assert failures == []


@pytest.fixture
def engine() -> SimulationEngine:
    """A fresh simulation engine with a fixed seed."""
    return SimulationEngine(seed=1234)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy generator for latency-model tests."""
    return np.random.default_rng(99)
