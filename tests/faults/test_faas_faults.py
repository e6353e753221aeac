"""FaaS fault injection: outcome semantics, retry/backoff, fallback."""

import pytest

from repro.faas import AWS_LAMBDA, FaasPlatform, FunctionDefinition, FunctionOutput
from repro.faults import FaultInjector, FaultPlan
from repro.sim import SimulationEngine

CALLS = []


def echo_handler(payload):
    CALLS.append(payload)
    return FunctionOutput(value={"echo": payload}, work_ms_single_vcpu=100.0)


def make_platform(engine, plan=None, timeout_ms=30_000.0):
    platform = FaasPlatform(engine, provider=AWS_LAMBDA)
    platform.register(
        FunctionDefinition(
            name="echo", handler=echo_handler, memory_mb=1769, timeout_ms=timeout_ms
        )
    )
    if plan is not None:
        platform.fault_injector = FaultInjector(engine, FaultPlan.from_dict(plan))
    return platform


@pytest.fixture(autouse=True)
def _reset_calls():
    CALLS.clear()


def test_injected_failure_runs_handler_but_loses_result(engine):
    platform = make_platform(engine, {"faas": {"failure_rate": 1.0}})
    invocation = platform.invoke("echo", 1)
    assert invocation.status == "failure"
    assert invocation.result is None
    assert CALLS == [1]  # the function executed; only its reply is lost
    assert len(platform.billing.charges) == 1  # failures are billed
    assert engine.metrics.counter("faas_failures") == 1.0


def test_throttled_invocation_never_reaches_the_handler(engine):
    platform = make_platform(engine, {"faas": {"throttle_rate": 1.0}})
    invocation = platform.invoke("echo", 1)
    assert invocation.status == "throttled"
    assert invocation.result is None
    assert invocation.execution_ms == 0.0
    assert CALLS == []  # rejected at the control plane
    assert len(platform.billing.charges) == 0  # throttles are not billed
    assert platform._pools["echo"]._environments == []  # no environment reserved
    assert engine.metrics.counter("faas_throttles") == 1.0


def test_forced_timeout_clamps_to_the_function_deadline(engine):
    platform = make_platform(engine, {"faas": {"timeout_rate": 1.0}}, timeout_ms=5000.0)
    invocation = platform.invoke("echo", 1)
    definition_timeout = 5000.0
    assert invocation.status == "timeout"
    assert invocation.result is None
    assert invocation.execution_ms == definition_timeout
    assert engine.metrics.counter("faas_forced_timeouts") == 1.0


def test_retry_resubmits_with_exponential_backoff(engine):
    platform = make_platform(
        engine,
        {
            "faas": {
                "failure_rate": 1.0,
                "retry": {"max_attempts": 3, "backoff_base_ms": 50.0, "backoff_multiplier": 2.0},
            }
        },
    )
    aggregate = platform.invoke_with_retry("echo", 1)
    raw = platform.invocations
    assert len(raw) == 3  # every raw attempt is kept
    assert aggregate.attempts == 3
    assert aggregate.status == "failure"  # all attempts failed
    # Attempt n+1 is submitted at attempt n's completion plus the backoff.
    assert raw[1].submitted_ms == pytest.approx(raw[0].completed_ms + 50.0)
    assert raw[2].submitted_ms == pytest.approx(raw[1].completed_ms + 100.0)
    # The aggregate spans the whole ordeal from the first submission.
    assert aggregate.submitted_ms == raw[0].submitted_ms
    assert aggregate.latency_ms == pytest.approx(
        raw[2].completed_ms - raw[0].submitted_ms
    )
    assert engine.metrics.counter("faas_retries") == 2.0
    assert engine.metrics.counter("faas_giveups") == 1.0


def test_retry_stops_at_first_success():
    # failure_rate 0.5: with this seed some attempts fail, and every
    # aggregate either succeeded or exhausted its attempts.
    engine = SimulationEngine(seed=5)
    platform = make_platform(
        engine, {"faas": {"failure_rate": 0.5, "retry": {"max_attempts": 4}}}
    )
    results = [platform.invoke_with_retry("echo", n) for n in range(30)]
    assert any(r.status == "ok" and r.attempts > 1 for r in results)
    for aggregate in results:
        assert aggregate.status == "ok" or aggregate.attempts == 4


def test_invoke_with_retry_without_injector_is_exactly_invoke():
    via_invoke = make_platform(SimulationEngine(seed=77), None).invoke("echo", 1)
    via_retry = make_platform(SimulationEngine(seed=77), None).invoke_with_retry("echo", 1)
    assert via_retry == via_invoke


def test_speculative_offload_falls_back_to_local_on_giveup(engine):
    # With every invocation failing, speculation must still make progress:
    # each construct tick falls back to local simulation.
    from repro.core.servo import build_servo_server
    from repro.server import GameConfig

    server = build_servo_server(engine, GameConfig(world_type="flat"))
    server.chunks.preload_area(server.config.spawn_position, 96.0)
    server.runtime.platform.fault_injector = FaultInjector(
        engine,
        FaultPlan.from_dict(
            {"faas": {"failure_rate": 1.0, "retry": {"max_attempts": 2}}}
        ),
    )
    from repro.constructs.library import build_wire_line
    from repro.world.coords import BlockPos

    server.place_construct(build_wire_line(8, BlockPos(0, 64, 0), powered=True))
    # The first (failed) reply lands after ~3 s virtual; tick past it.
    for _ in range(80):
        server.tick()
    assert engine.metrics.counter("offload_local_fallbacks") > 0
    assert engine.metrics.counter("faas_giveups") > 0
    # The construct still advanced (locally) despite the dead platform.
    assert all(c.step > 0 for c in server.constructs.constructs())
