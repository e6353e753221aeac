"""Tests for the FaaS platform simulator."""

import pytest

from repro.faas import (
    AWS_LAMBDA,
    AZURE_FUNCTIONS,
    FaasPlatform,
    FunctionDefinition,
    FunctionNotRegisteredError,
    FunctionOutput,
)
from repro.faas.providers import provider_by_name
from repro.sim import SimulationEngine


def echo_handler(payload):
    return FunctionOutput(value={"echo": payload}, work_ms_single_vcpu=100.0)


@pytest.fixture
def platform(engine):
    platform = FaasPlatform(engine, provider=AWS_LAMBDA)
    platform.register(FunctionDefinition(name="echo", handler=echo_handler, memory_mb=1769))
    return platform


def test_invoke_runs_handler_and_returns_result(platform):
    invocation = platform.invoke("echo", {"x": 1})
    assert invocation.result == {"echo": {"x": 1}}
    assert invocation.function_name == "echo"
    assert invocation.latency_ms > invocation.execution_ms > 0


def test_invoke_unregistered_function_raises(platform):
    with pytest.raises(FunctionNotRegisteredError):
        platform.invoke("missing", {})


def test_first_invocation_is_cold_then_warm(platform, engine):
    first = platform.invoke("echo", 1)
    engine.advance_by(1000.0)
    second = platform.invoke("echo", 2)
    assert first.cold_start is True
    assert second.cold_start is False
    assert first.cold_start_ms > 0
    assert second.cold_start_ms == 0


def test_concurrent_invocations_trigger_extra_cold_starts(platform):
    # Two invocations at the same instant need two execution environments.
    first = platform.invoke("echo", 1)
    second = platform.invoke("echo", 2)
    assert first.cold_start and second.cold_start
    assert len(platform._pools["echo"]._environments) == 2


def test_warm_environment_expires_after_keep_alive(platform, engine):
    platform.invoke("echo", 1)
    engine.advance_by(AWS_LAMBDA.keep_alive_ms + 60_000.0)
    late = platform.invoke("echo", 2)
    assert late.cold_start is True


def test_handler_must_return_function_output(engine):
    platform = FaasPlatform(engine)
    platform.register(FunctionDefinition(name="bad", handler=lambda payload: payload))
    with pytest.raises(TypeError):
        platform.invoke("bad", 1)


def test_timeout_truncates_execution(engine):
    platform = FaasPlatform(engine)
    platform.register(
        FunctionDefinition(
            name="slow",
            handler=lambda payload: FunctionOutput(value=1, work_ms_single_vcpu=10_000.0),
            timeout_ms=500.0,
        )
    )
    invocation = platform.invoke("slow", None)
    assert invocation.status == "timeout"
    assert invocation.execution_ms == 500.0
    assert invocation.result is None


def test_billing_accumulates_cost_and_rates(platform, engine):
    for _ in range(10):
        platform.invoke("echo", None)
        engine.advance_by(6_000.0)
    billing = platform.billing
    assert len(billing.charges) == 10
    assert billing.total_cost_usd() > 0


def test_function_definition_validation():
    with pytest.raises(ValueError):
        FunctionDefinition(name="x", handler=echo_handler, memory_mb=0)
    with pytest.raises(ValueError):
        FunctionDefinition(name="x", handler=echo_handler, timeout_ms=0)


def test_provider_lookup_and_profiles():
    assert provider_by_name("aws") is AWS_LAMBDA
    assert provider_by_name("azure-functions") is AZURE_FUNCTIONS
    with pytest.raises(ValueError):
        provider_by_name("gcp")
    assert AWS_LAMBDA.billing.usd_per_gb_second > 0
    assert AZURE_FUNCTIONS.keep_alive_ms < AWS_LAMBDA.keep_alive_ms + 1e9


def test_timed_out_invocation_releases_its_warm_slot_at_the_deadline(engine):
    # Regression: the execution time must be clamped to the function timeout
    # BEFORE the warm slot is acquired — a timed-out invocation occupies its
    # environment until the platform kills it at timeout_ms, never for the
    # unclamped execution time.
    platform = FaasPlatform(engine, provider=AWS_LAMBDA)
    platform.register(
        FunctionDefinition(
            name="slow", handler=echo_handler, memory_mb=1769, timeout_ms=1.0
        )
    )
    submitted = engine.now_ms
    invocation = platform.invoke("slow", {})
    assert invocation.status == "timeout"
    assert invocation.result is None
    assert invocation.execution_ms == 1.0
    environment = platform._pools["slow"]._environments[0]
    assert environment.busy_until_ms == pytest.approx(submitted + 1.0)
