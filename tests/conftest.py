"""Shared pytest fixtures and the one hypothesis profile."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.sim import SimulationEngine

# Every run checks the same generated cases (seeded from each test), so two
# green runs cover identical inputs and a failing case reproduces.  No
# deadline: simulation steps vary with the host, not with the case.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def engine() -> SimulationEngine:
    """A fresh simulation engine with a fixed seed."""
    return SimulationEngine(seed=1234)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy generator for latency-model tests."""
    return np.random.default_rng(99)
