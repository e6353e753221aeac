"""Shared pytest fixtures; importing ``hypothesis_profiles`` loads the hypothesis profile."""

from __future__ import annotations

import numpy as np
import pytest

import hypothesis_profiles  # noqa: F401  (registers both profiles, loads one)
from repro.sim import SimulationEngine


@pytest.fixture
def engine() -> SimulationEngine:
    """A fresh simulation engine with a fixed seed."""
    return SimulationEngine(seed=1234)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic numpy generator for latency-model tests."""
    return np.random.default_rng(99)
