"""Tests for the resource scaling model, warm pools and billing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faas.billing import BillingModel
from repro.faas.coldstart import WarmInstancePool
from repro.faas.providers import BillingRates
from repro.faas.resources import (
    FIGURE_11_MEMORY_CONFIGS_MB,
    MEMORY_PER_VCPU_MB,
    ResourceModel,
    vcpus_for_memory,
)

from hypothesis_profiles import examples


def test_vcpus_scale_linearly_with_memory():
    assert vcpus_for_memory(MEMORY_PER_VCPU_MB) == pytest.approx(1.0)
    assert vcpus_for_memory(2 * MEMORY_PER_VCPU_MB) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        vcpus_for_memory(0)


def test_mean_execution_decreases_with_memory():
    model = ResourceModel()
    means = [model.mean_execution_ms(1000.0, memory) for memory in FIGURE_11_MEMORY_CONFIGS_MB]
    assert means == sorted(means, reverse=True)


def test_execution_speedup_is_sublinear():
    model = ResourceModel()
    small = model.mean_execution_ms(1000.0, 1024)
    large = model.mean_execution_ms(1000.0, 8192)
    # 8x the memory gives less than 8x the speed.
    assert small / large < 8.0
    assert small / large > 1.5


def test_small_configurations_have_more_variability():
    model = ResourceModel()
    assert model.sigma(320) > model.sigma(10240)


def test_memory_pressure_penalises_the_smallest_config():
    model = ResourceModel()
    # Below the pressure threshold the speed drops by the pressure factor.
    assert model.speed_factor(320) < model.speed_factor(480) * (480 / 320) ** -0.1


def test_sample_execution_is_positive_and_near_mean():
    model = ResourceModel()
    rng = np.random.default_rng(0)
    samples = [model.sample_execution_ms(500.0, 2048, rng) for _ in range(2000)]
    assert min(samples) > 0
    assert np.mean(samples) == pytest.approx(model.mean_execution_ms(500.0, 2048), rel=0.1)


def test_negative_work_rejected():
    with pytest.raises(ValueError):
        ResourceModel().mean_execution_ms(-1.0, 1024)


def test_warm_pool_reuses_free_environments():
    pool = WarmInstancePool(keep_alive_ms=10_000.0)
    assert pool.acquire(now_ms=0.0, duration_ms=100.0) is True
    assert pool.acquire(now_ms=200.0, duration_ms=100.0) is False
    assert len(pool._environments) == 1


def test_warm_pool_concurrency_needs_extra_environments():
    pool = WarmInstancePool(keep_alive_ms=10_000.0)
    assert pool.acquire(now_ms=0.0, duration_ms=1000.0) is True
    assert pool.acquire(now_ms=10.0, duration_ms=1000.0) is True
    assert len(pool._environments) == 2


def test_warm_pool_expires_idle_environments():
    pool = WarmInstancePool(keep_alive_ms=1_000.0)
    pool.acquire(now_ms=0.0, duration_ms=10.0)
    assert pool.acquire(now_ms=500.0, duration_ms=10.0) is False  # still warm
    assert pool.acquire(now_ms=5_000.0, duration_ms=10.0) is True  # idle too long: gone


def test_billing_minimum_and_rounding():
    billing = BillingModel(rates=BillingRates(usd_per_million_requests=0.2, usd_per_gb_second=1e-5))
    charge = billing.record(execution_ms=0.4, memory_mb=1024)
    assert charge.billed_duration_ms == 1.0
    charge = billing.record(execution_ms=100.3, memory_mb=1024)
    assert charge.billed_duration_ms == pytest.approx(101.0)


def test_billing_cost_formula_matches_rates():
    rates = BillingRates(usd_per_million_requests=0.2, usd_per_gb_second=0.0000166667)
    billing = BillingModel(rates=rates)
    charge = billing.record(execution_ms=1000.0, memory_mb=1024)
    expected = 0.2 / 1_000_000 + 1.0 * rates.usd_per_gb_second
    assert charge.cost_usd == pytest.approx(expected)
    assert billing.total_cost_usd() == pytest.approx(expected)


@settings(max_examples=examples(30))
@given(
    st.floats(min_value=1.0, max_value=60_000.0),
    st.integers(min_value=128, max_value=10_240),
)
def test_billing_cost_is_monotone_in_duration_and_memory(execution_ms, memory_mb):
    billing = BillingModel(rates=BillingRates(usd_per_million_requests=0.2, usd_per_gb_second=1e-5))
    small = billing.record(execution_ms, memory_mb).cost_usd
    bigger = billing.record(execution_ms * 2, memory_mb).cost_usd
    more_memory = billing.record(execution_ms, memory_mb * 2).cost_usd
    assert bigger >= small
    assert more_memory >= small
