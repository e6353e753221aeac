"""Tests for the speculative execution unit (Servo's construct backend)."""

from dataclasses import replace

import pytest

from repro.constructs.library import build_clock, build_counter_farm, standard_construct
from repro.constructs.compiled import compile_circuit
from repro.core import ServoConfig
from repro.constructs.loop_detection import CompressedStateSequence
from repro.core.offload import SC_SIMULATION_FUNCTION, SimulationHandler
from repro.core.speculative import SpeculativeConstructBackend
from repro.faas import AWS_LAMBDA, FaasPlatform, FunctionDefinition
from construct_helpers import cell_at
from repro.sim import SimulationEngine


def make_backend(engine, config=None):
    platform = FaasPlatform(engine, provider=AWS_LAMBDA)
    platform.register(
        FunctionDefinition(
            name=SC_SIMULATION_FUNCTION, handler=SimulationHandler(), memory_mb=1769
        )
    )
    backend = SpeculativeConstructBackend(engine, platform, config or ServoConfig())
    return backend, platform


def run_ticks(engine, backend, ticks, tick_ms=50.0):
    reports = []
    for tick in range(ticks):
        reports.append(backend.tick(tick))
        engine.advance_by(tick_ms)
    return reports


def test_registration_issues_the_first_invocation(engine):
    backend, platform = make_backend(engine)
    backend.register_construct(build_counter_farm(hoppers=2))
    assert len(platform.billing.charges) == 1
    assert engine.metrics.counter("offload_invocations") == 1


def test_constructs_advance_exactly_one_step_per_tick(engine):
    backend, _ = make_backend(engine)
    construct = build_counter_farm(hoppers=2)
    backend.register_construct(construct)
    run_ticks(engine, backend, 40)
    assert construct.step == 40


def test_fallback_until_reply_then_merge(engine):
    backend, platform = make_backend(engine)
    construct = build_counter_farm(hoppers=2)
    backend.register_construct(construct)
    # 150 ticks (7.5 s) comfortably covers the worst-case cold start (~5 s).
    reports = run_ticks(engine, backend, 150)
    merged = sum(report.merged_speculative for report in reports)
    fallback = sum(report.simulated_locally for report in reports)
    assert fallback > 0, "cold-start latency must be hidden by local simulation"
    assert merged > 0, "speculative states must eventually be applied"
    assert merged + fallback == 150


def test_speculative_states_match_pure_local_simulation(engine):
    """The observable construct state is identical with and without offloading."""
    backend, _ = make_backend(engine)
    construct = build_counter_farm(hoppers=3)
    reference = build_counter_farm(hoppers=3)
    reference.apply_row(construct.states, construct.step)
    backend.register_construct(construct)
    for tick in range(80):
        backend.tick(tick)
        compile_circuit(reference).step()
        engine.advance_by(50.0)
        assert [cell.state for cell in construct.cells] == [
            cell.state for cell in reference.cells
        ]
        assert backend.verify_states()


def test_looping_construct_needs_only_one_invocation(engine):
    backend, platform = make_backend(engine)
    construct = build_clock(period=4, lamps=1)
    backend.register_construct(construct)
    run_ticks(engine, backend, 300)
    assert len(platform.billing.charges) == 1
    assert engine.metrics.counter("loops_detected") == 1


def test_every_offload_request_asks_for_loop_detection(engine):
    platform = FaasPlatform(engine, provider=AWS_LAMBDA)
    inner = SimulationHandler()
    requests = []

    def handler(request):
        requests.append(request)
        return inner(request)

    platform.register(
        FunctionDefinition(name=SC_SIMULATION_FUNCTION, handler=handler, memory_mb=1769)
    )
    config = ServoConfig(steps_per_invocation=20, tick_lead=5)
    backend = SpeculativeConstructBackend(engine, platform, config)
    backend.register_construct(build_counter_farm(hoppers=2))
    run_ticks(engine, backend, 120)
    assert len(requests) > 1  # the first request and its follow-ups
    assert all(request.detect_loops for request in requests)


def test_aperiodic_construct_reinvokes_with_tick_lead(engine):
    config = ServoConfig(steps_per_invocation=50, tick_lead=10)
    backend, platform = make_backend(engine, config)
    construct = build_counter_farm(hoppers=2)
    backend.register_construct(construct)
    run_ticks(engine, backend, 200)
    # 200 ticks / 50 steps per invocation -> roughly 4-6 invocations.
    assert 3 <= len(platform.billing.charges) <= 7


def test_player_modification_invalidates_speculation(engine):
    backend, platform = make_backend(engine)
    construct = build_counter_farm(hoppers=2)
    backend.register_construct(construct)
    run_ticks(engine, backend, 150)
    record = backend.record_for(construct.construct_id)
    assert record.available, "speculative coverage should exist before the edit"
    backend.on_player_modify(construct.construct_id, construct.positions[0])
    assert not record.available
    assert engine.metrics.counter("speculation_invalidated") == 1
    # The construct still advances every tick after the edit (fallback path).
    step_before = construct.step
    run_ticks(engine, backend, 10)
    assert construct.step == step_before + 10


def test_stale_replies_are_discarded(engine):
    config = ServoConfig(steps_per_invocation=30, tick_lead=5)
    backend, platform = make_backend(engine, config)
    construct = build_counter_farm(hoppers=2)
    backend.register_construct(construct)
    # Modify the construct while the first invocation is still in flight.
    backend.on_player_modify(construct.construct_id, construct.positions[0])
    run_ticks(engine, backend, 120)
    assert engine.metrics.counter("speculation_discarded") >= 1
    assert construct.step == 120


def test_a_reply_of_the_wrong_width_is_counted_as_a_failure_and_never_merged(engine):
    """A reply whose rows do not fit the construct is dropped whole; the construct advances locally."""
    inner = SimulationHandler()

    def narrow_handler(request):
        output = inner(request)
        sequence = output.value.sequence
        narrow = CompressedStateSequence(
            sequence.start_step, sequence.states[:, :-1].copy(), sequence.loop_start
        )
        return replace(output, value=replace(output.value, sequence=narrow))

    platform = FaasPlatform(engine, provider=AWS_LAMBDA)
    platform.register(
        FunctionDefinition(name=SC_SIMULATION_FUNCTION, handler=narrow_handler, memory_mb=1769)
    )
    backend = SpeculativeConstructBackend(
        engine, platform, ServoConfig(steps_per_invocation=20, tick_lead=5)
    )
    construct = build_counter_farm(hoppers=2)
    reference = build_counter_farm(hoppers=2)
    backend.register_construct(construct)
    reports = run_ticks(engine, backend, 200)

    failures = engine.metrics.counter("offload_failures")
    assert failures >= 2, "every consumed reply must have been rejected"
    assert engine.metrics.counter("offload_local_fallbacks") == failures
    assert len(platform.billing.charges) > failures  # it kept trying
    assert not backend.record_for(construct.construct_id).available
    assert sum(report.merged_speculative for report in reports) == 0
    assert sum(report.simulated_locally for report in reports) == 200
    for _ in range(200):
        compile_circuit(reference).step()
    assert [c.state for c in construct.cells] == [c.state for c in reference.cells]


def test_efficiency_samples_are_recorded_between_zero_and_one(engine):
    backend, _ = make_backend(engine)
    backend.register_construct(build_counter_farm(hoppers=2))
    run_ticks(engine, backend, 120)
    samples = backend.metrics.histogram("speculation_efficiency").samples
    assert samples, "each consumed invocation must produce an efficiency sample"
    assert all(0.0 <= value <= 1.0 for value in samples)


def test_sufficient_tick_lead_reaches_full_efficiency(engine):
    config = ServoConfig(steps_per_invocation=50, tick_lead=30)
    backend, _ = make_backend(engine, config)
    construct = build_counter_farm(hoppers=2)
    backend.register_construct(construct)
    run_ticks(engine, backend, 400)
    samples = backend.metrics.histogram("speculation_efficiency").samples
    # After the first (cold) invocation, replies arrive well before they are
    # needed, so later invocations reach 100 % efficiency.
    assert samples[-1] == pytest.approx(1.0)
    assert sum(1 for value in samples if value >= 0.999) >= len(samples) - 2


def test_remove_construct_stops_offloading(engine):
    backend, platform = make_backend(engine)
    construct = build_counter_farm(hoppers=2)
    backend.register_construct(construct)
    backend.remove_construct(construct.construct_id)
    run_ticks(engine, backend, 50)
    assert len(platform.billing.charges) == 1  # only the registration invocation
    with pytest.raises(KeyError):
        backend.record_for(construct.construct_id)


def test_multiple_identical_constructs_stay_in_lockstep(engine):
    backend, _ = make_backend(engine)
    constructs = [standard_construct(index) for index in range(5)]
    for construct in constructs:
        backend.register_construct(construct)
    run_ticks(engine, backend, 60)
    reference_states = [cell.state for cell in constructs[0].cells]
    for construct in constructs[1:]:
        assert [cell.state for cell in construct.cells] == reference_states
        assert construct.step == constructs[0].step
    assert backend.verify_states()


def test_fixed_point_construct_goes_quiescent_without_changing_results(engine):
    """A settled circuit is parked by the loop replay, bit-identically.

    A powered wire line reaches a fixed point; the offload function reports
    it as a length-1 loop, after which the backend stops re-applying the
    state and only advances the step counter — while the tick report keeps
    charging the merge to the simulated server.
    """
    from repro.constructs.library import build_wire_line
    from construct_helpers import clone_construct
    from repro.constructs.simulator import ReferenceConstructSimulator

    backend, _ = make_backend(engine)
    construct = build_wire_line(length=4, powered=True)
    reference = clone_construct(construct)
    backend.register_construct(construct)
    reports = run_ticks(engine, backend, 200)

    skipped = sum(report.skipped_quiescent for report in reports)
    assert skipped > 0, "a settled construct must eventually be skipped"
    # Virtual-time accounting is unchanged: every tick still reports exactly
    # one advance through the merge or fallback path.
    assert all(
        report.merged_speculative + report.simulated_locally == 1
        for report in reports
    )
    reference_simulator = ReferenceConstructSimulator()
    for _ in range(200):
        reference_simulator.step(reference)
    assert construct.snapshot() == reference.snapshot()
    assert backend.replay.parked == [construct] and backend.verify_states()
    record = backend.record_for(construct.construct_id)
    assert record.merged_steps + record.fallback_steps == 200


def test_a_looping_clock_replays_its_reply_and_still_pays_the_merges(engine):
    """A clock's reply loops with period > 1: once merged inside the loop, it is replayed.

    Every replayed step is still reported as a merge (the simulated server
    pays it), and the states are exactly the reference simulator's.
    """
    from construct_helpers import clone_construct
    from repro.constructs.simulator import ReferenceConstructSimulator

    backend, platform = make_backend(engine)
    construct = build_clock(period=5, lamps=2)
    reference = clone_construct(construct)
    backend.register_construct(construct)
    reports = run_ticks(engine, backend, 200)
    (replay,) = backend.replay.replaying
    assert replay.construct is construct and replay.period > 1
    assert reports[-1].skipped_quiescent == reports[-1].merged_speculative == 1
    record = backend.record_for(construct.construct_id)
    merged = sum(report.merged_speculative for report in reports)
    assert record.merged_steps == merged and merged + record.fallback_steps == 200
    assert len(platform.billing.charges) == record.invocations_issued == 1
    simulator = ReferenceConstructSimulator()
    for _ in range(200):
        simulator.step(reference)
    assert construct.snapshot() == reference.snapshot() and backend.verify_states()


def test_a_construct_enters_the_replay_only_once_its_invocation_is_consumed(engine):
    """A looping reply at hand does not hand the construct over while a reply is in flight.

    The replay skips phase 1, where arrived replies are consumed: entering it
    early would leave the registration's invocation pending for ever.
    """
    from repro.core.offload import OffloadRequest

    backend, _ = make_backend(engine)
    construct = build_clock(period=4)
    backend.register_construct(construct)
    record = backend.record_for(construct.construct_id)
    # A looping reply already at hand while the first invocation cold-starts.
    handler = SimulationHandler()
    reply = handler(OffloadRequest.from_construct(construct, steps=40)).value
    assert reply.sequence.is_looping and record.pending is not None
    record.available.append(reply)
    for tick in range(200):
        if record.pending is None:
            break
        report = backend.tick(tick)
        engine.advance_by(50.0)
        assert report.merged_speculative == 1
        assert not backend.replay.replaying or record.pending is None
    assert record.pending is None and len(backend.metrics.histogram("speculation_efficiency").samples) == 1
    assert [replay.construct for replay in backend.replay.replaying] == [construct]


def test_player_edit_wakes_a_quiescent_construct(engine):
    from repro.constructs.library import build_wire_line

    backend, _ = make_backend(engine)
    construct = build_wire_line(length=4, powered=False)  # lever off: settles
    backend.register_construct(construct)
    reports = run_ticks(engine, backend, 200)
    assert reports[-1].skipped_quiescent == 1

    lever_position = construct.positions[0]
    backend.on_player_modify(construct.construct_id, lever_position)
    cell_at(construct, lever_position).state = 1
    woke = backend.tick(200)
    engine.advance_by(50.0)
    assert woke.skipped_quiescent == 0
    assert woke.simulated_locally == 1  # back on the fallback path
    # The signal propagates again: the lamp at the end eventually lights.
    run_ticks(engine, backend, 20)
    assert construct.cells[-1].state == 1
    assert backend.verify_states()
