"""Validation and round-trip tests for fault plans."""

import json

import pytest

from repro.faults import FaultPlan, RetryPolicy


def test_empty_plan_is_empty():
    assert FaultPlan().is_empty
    assert FaultPlan.from_dict({}).is_empty
    assert FaultPlan.from_dict({}).to_dict() == {}


def test_zero_rate_sections_still_count_as_empty():
    # A plan whose probabilities are all zero installs nothing.
    plan = FaultPlan.from_dict(
        {"faas": {"failure_rate": 0.0}, "net": {"drop_rate": 0.0}}
    )
    assert plan.is_empty


def test_full_plan_round_trips_through_dict_and_json():
    data = {
        "faas": {
            "failure_rate": 0.1,
            "throttle_rate": 0.05,
            "timeout_rate": 0.02,
            "retry": {
                "max_attempts": 4,
                "backoff_base_ms": 25.0,
                "backoff_multiplier": 3.0,
                "jitter_ms": 10.0,
            },
        },
        "net": {
            "drop_rate": 0.03,
            "duplicate_rate": 0.02,
            "delay_rate": 0.1,
            "delay_ms_min": 10.0,
            "delay_ms_max": 100.0,
        },
        "shards": [
            {"at_ms": 5000.0, "shard": 1, "respawn_after_ms": 1500.0},
            {"at_ms": 2000.0, "shard": 0, "respawn_after_ms": 2000.0},
        ],
        "degradation": {"budget_ms": 60.0, "shed_fraction": 0.25},
    }
    plan = FaultPlan.from_dict(data)
    assert not plan.is_empty
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    assert FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan
    # Kills are sorted by (at_ms, shard) regardless of input order.
    assert [kill.at_ms for kill in plan.shards] == [2000.0, 5000.0]


@pytest.mark.parametrize(
    "bad",
    [
        {"bogus": {}},
        {"faas": {"failure_rate": 1.5}},
        {"faas": {"failure_rate": -0.1}},
        {"faas": {"failure_rate": 0.6, "throttle_rate": 0.6}},
        {"faas": {"retry": {"max_attempts": 0}}},
        {"faas": {"retry": {"backoff_multiplier": 0.5}}},
        {"net": {"drop_rate": "lots"}},
        {"net": {"delay_ms_min": 100.0, "delay_ms_max": 10.0}},
        {"shards": [{"shard": 0}]},
        {"shards": [{"at_ms": -1.0, "shard": 0}]},
        {"shards": [{"at_ms": 1.0, "shard": -1}]},
        {"shards": {"at_ms": 1.0, "shard": 0}},
        {"degradation": {"budget_ms": 0.0}},
        {"degradation": {"shed_fraction": 2.0}},
    ],
)
def test_malformed_plans_are_rejected_eagerly(bad):
    with pytest.raises(ValueError):
        FaultPlan.from_dict(bad)


def test_retry_backoff_is_exponential():
    policy = RetryPolicy(backoff_base_ms=50.0, backoff_multiplier=2.0)
    assert policy.backoff_ms(1) == 50.0
    assert policy.backoff_ms(2) == 100.0
    assert policy.backoff_ms(3) == 200.0
