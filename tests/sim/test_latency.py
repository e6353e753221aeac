"""Tests for the latency models."""

import numpy as np
import pytest

from repro.sim.latency import LatencyModel, LogNormalLatency, MixtureLatency


class ConstantLatency(LatencyModel):
    """A fixed latency: a mixture's components become recognisable."""

    def __init__(self, value_ms: float) -> None:
        self.value_ms = value_ms

    def sample(self, rng) -> float:
        return self.value_ms


def draw(model, rng, n):
    return np.array([model.sample(rng) for _ in range(n)])


def test_lognormal_latency_respects_floor_and_cap(rng):
    model = LogNormalLatency(median_ms=10.0, sigma=1.5, floor_ms=5.0, cap_ms=50.0)
    samples = draw(model, rng, 2000)
    assert samples.min() >= 5.0
    assert samples.max() <= 50.0


def test_lognormal_latency_median_is_near_configured_median(rng):
    model = LogNormalLatency(median_ms=100.0, sigma=0.3)
    samples = draw(model, rng, 5000)
    assert np.median(samples) == pytest.approx(100.0, rel=0.05)


def test_mixture_latency_draws_from_both_components(rng):
    model = MixtureLatency(
        components=[ConstantLatency(1.0), ConstantLatency(100.0)], weights=[0.5, 0.5]
    )
    samples = {model.sample(rng) for _ in range(200)}
    assert samples == {1.0, 100.0}


def test_mixture_latency_validates_weights():
    with pytest.raises(ValueError):
        MixtureLatency(components=[ConstantLatency(1.0)], weights=[1.0, 2.0])
    with pytest.raises(ValueError):
        MixtureLatency(components=[ConstantLatency(1.0)], weights=[0.0])
