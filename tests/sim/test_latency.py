"""Tests for latency models and the cold-start model."""

import numpy as np
import pytest

from repro.sim.latency import (
    ColdStartModel,
    ConstantLatency,
    EmpiricalLatency,
    LogNormalLatency,
    MixtureLatency,
    ShiftedExponentialLatency,
)


def test_constant_latency_always_returns_value(rng):
    model = ConstantLatency(value_ms=12.5)
    assert model.sample(rng) == 12.5
    assert list(model.sample_many(rng, 4)) == [12.5] * 4


def test_lognormal_latency_respects_floor_and_cap(rng):
    model = LogNormalLatency(median_ms=10.0, sigma=1.5, floor_ms=5.0, cap_ms=50.0)
    samples = model.sample_many(rng, 2000)
    assert samples.min() >= 5.0
    assert samples.max() <= 50.0


def test_lognormal_latency_median_is_near_configured_median(rng):
    model = LogNormalLatency(median_ms=100.0, sigma=0.3)
    samples = model.sample_many(rng, 5000)
    assert np.median(samples) == pytest.approx(100.0, rel=0.05)


def test_shifted_exponential_has_minimum_floor(rng):
    model = ShiftedExponentialLatency(floor_ms=20.0, mean_tail_ms=10.0)
    samples = model.sample_many(rng, 1000)
    assert samples.min() >= 20.0
    assert samples.mean() == pytest.approx(30.0, rel=0.15)


def test_empirical_latency_resamples_observed_values(rng):
    model = EmpiricalLatency(samples_ms=[10.0, 20.0, 30.0], jitter_fraction=0.0)
    samples = {model.sample(rng) for _ in range(100)}
    assert samples <= {10.0, 20.0, 30.0}


def test_empirical_latency_rejects_empty_samples():
    with pytest.raises(ValueError):
        EmpiricalLatency(samples_ms=[])


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


def test_cold_start_first_invocation_pays_penalty(rng):
    model = ColdStartModel(keep_alive_ms=1000.0, penalty=ConstantLatency(500.0))
    assert model.penalty_ms(now_ms=0.0, rng=rng) == 500.0


def test_cold_start_within_keep_alive_is_warm(rng):
    model = ColdStartModel(keep_alive_ms=1000.0, penalty=ConstantLatency(500.0))
    model.penalty_ms(now_ms=0.0, rng=rng)
    assert model.penalty_ms(now_ms=500.0, rng=rng) == 0.0


def test_cold_start_after_keep_alive_expires(rng):
    model = ColdStartModel(keep_alive_ms=1000.0, penalty=ConstantLatency(500.0))
    model.penalty_ms(now_ms=0.0, rng=rng)
    assert model.penalty_ms(now_ms=5000.0, rng=rng) == 500.0


def test_cold_start_reset_forgets_warm_state(rng):
    model = ColdStartModel(keep_alive_ms=1000.0, penalty=ConstantLatency(500.0))
    model.penalty_ms(now_ms=0.0, rng=rng)
    model.reset()
    assert model.penalty_ms(now_ms=100.0, rng=rng) == 500.0
