"""The fault injector: seeded streams, timelines, reproducibility."""

from repro.faults import FaultInjector, FaultPlan
from repro.sim import SimulationEngine

from fault_helpers import fault_count

BROWNOUT = {
    "faas": {"failure_rate": 0.2, "throttle_rate": 0.1, "timeout_rate": 0.1}
}


def test_same_seed_same_plan_makes_identical_decisions():
    def outcomes(seed):
        engine = SimulationEngine(seed=seed)
        injector = FaultInjector(engine, FaultPlan.from_dict(BROWNOUT))
        return [injector.faas_outcome("fn") for _ in range(200)]

    assert outcomes(7) == outcomes(7)
    assert outcomes(7) != outcomes(8)


def test_all_outcomes_occur_at_their_configured_rates():
    engine = SimulationEngine(seed=3)
    injector = FaultInjector(engine, FaultPlan.from_dict(BROWNOUT))
    drawn = [injector.faas_outcome("fn") for _ in range(2000)]
    fraction = {kind: drawn.count(kind) / len(drawn) for kind in set(drawn)}
    assert abs(fraction["failure"] - 0.2) < 0.05
    assert abs(fraction["throttled"] - 0.1) < 0.05
    assert abs(fraction["timeout"] - 0.1) < 0.05
    assert abs(fraction["ok"] - 0.6) < 0.05


def test_fault_draws_do_not_perturb_other_streams():
    # The decisions an unrelated named stream produces must be identical
    # whether or not the injector drew from its own streams in between.
    quiet = SimulationEngine(seed=11)
    noisy = SimulationEngine(seed=11)
    injector = FaultInjector(noisy, FaultPlan.from_dict(BROWNOUT))
    before = quiet.rng("gameplay").random(5).tolist()
    for _ in range(100):
        injector.faas_outcome("fn")
    after = noisy.rng("gameplay").random(5).tolist()
    assert before == after


def test_timeline_records_faults_and_digest_is_stable(engine):
    injector = FaultInjector(engine, FaultPlan.from_dict({"faas": {"failure_rate": 1.0}}))
    assert injector.faas_outcome("fn") == "failure"
    injector.record("shard.kill", "shard-1")
    assert len(injector.timeline) == 2
    assert fault_count(injector.timeline, "faas.") == 1
    assert fault_count(injector.timeline, "shard.") == 1
    digest = injector.timeline.digest()
    assert digest == injector.timeline.digest()
    injector.faas_outcome("fn")
    assert injector.timeline.digest() != digest


def test_shard_kills_pop_once_in_time_order(engine):
    plan = FaultPlan.from_dict(
        {"shards": [{"at_ms": 100.0, "shard": 0}, {"at_ms": 300.0, "shard": 1}]}
    )
    injector = FaultInjector(engine, plan)
    assert injector.shard_kills_due(50.0) == []
    first = injector.shard_kills_due(150.0)
    assert [kill.shard for kill in first] == [0]
    # Already-delivered kills never fire again.
    assert injector.shard_kills_due(150.0) == []
    assert [kill.shard for kill in injector.shard_kills_due(1000.0)] == [1]


def test_jitter_draws_nothing_when_disabled(engine):
    injector = FaultInjector(engine, FaultPlan.from_dict({"faas": {"failure_rate": 0.5}}))
    state_before = injector._faas_rng.bit_generator.state
    assert injector.retry_jitter_ms() == 0.0
    assert injector._faas_rng.bit_generator.state == state_before
