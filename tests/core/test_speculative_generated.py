"""Generated differential test of Servo's speculative backend against the reference simulator.

Two constructs of one generated shape stand at two generated anchors
(negative coordinates and spans across the origin included) behind one
offload handler, under a generated ``ServoConfig`` and a generated schedule
of player edits.  Each edit waits for a *phase* of the speculation
machinery — before the first reply, mid-sequence, while a follow-up
invocation is in flight, while the loop replay holds the construct — and
then lands on both constructs and on their reference clones.  Every tick,
every construct's ``snapshot().digest()`` must equal that of its clone
stepped by :class:`ReferenceConstructSimulator`, the backend must report
exactly one advance per construct, and ``verify_states()`` must hold
(writable private ``int64`` vectors, ``Cell.state`` a plain ``int`` view of
them, every replayed construct's next row the one a step gives, every parked
construct really at a fixed point).

The oracle is the reference simulator, which shares no code with the offload
wire format; no copy of an older wire format is kept here.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.constructs.components import ComponentType
from repro.constructs.library import (
    build_adder,
    build_clock,
    build_counter_farm,
    build_lamp_grid,
    build_piston_door,
    build_sized_construct,
    build_wire_line,
)
from construct_helpers import cell_at, clone_construct, set_cell, toggle_lever
from repro.constructs.simulator import ReferenceConstructSimulator
from repro.core import ServoConfig
from repro.core.offload import SC_SIMULATION_FUNCTION, SimulationHandler
from repro.core.speculative import SpeculativeConstructBackend
from repro.faas import AWS_LAMBDA, FaasPlatform, FunctionDefinition
from repro.sim import SimulationEngine
from repro.world.coords import BlockPos

from hypothesis_profiles import examples

#: the speculation phases an edit can wait for
PHASES = ("before_first_reply", "mid_sequence", "follow_up_in_flight", "replaying")
#: give up waiting for a phase the construct never reaches (an aperiodic
#: construct never replays, a looping one never needs a follow-up)
PHASE_TIMEOUT_TICKS = 130
#: every case runs past the cold start of its first invocation, and for a
#: while after its last edit
MIN_TICKS = 150
TAIL_TICKS = 12

SHAPES = {
    "clock": lambda origin, a, b: build_clock(period=2 + a % 7, origin=origin, lamps=1 + b % 3),
    "lamp_grid": lambda origin, a, b: build_lamp_grid(1 + a % 4, 1 + b % 3, origin=origin),
    "wire_line_powered": lambda origin, a, b: build_wire_line(1 + a % 6, origin=origin, powered=True),
    "wire_line_lever": lambda origin, a, b: build_wire_line(1 + a % 6, origin=origin, powered=False),
    "counter_farm": lambda origin, a, b: build_counter_farm(hoppers=1 + a % 4, origin=origin),
    "sized_looping": lambda origin, a, b: build_sized_construct(4 + a * 3, origin=origin, looping=True),
    "sized_aperiodic": lambda origin, a, b: build_sized_construct(4 + a * 3, origin=origin, looping=False),
    "piston_door": lambda origin, a, b: build_piston_door(origin=origin, wire_run=1 + a % 4),
    "adder": lambda origin, a, b: build_adder(origin=origin),
}

anchors = st.builds(
    BlockPos,
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=120),
    st.integers(min_value=-40, max_value=40),
)
configs = st.builds(
    ServoConfig,
    tick_lead=st.integers(min_value=0, max_value=30),
    steps_per_invocation=st.integers(min_value=1, max_value=60),
)
#: (phase to wait for, extra ticks to wait, edit kind, cell selector, new state)
edits = st.tuples(
    st.sampled_from(PHASES),
    st.integers(min_value=0, max_value=4),
    st.sampled_from(("toggle_lever", "set_state", "touch")),
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=0, max_value=15),
)


def phase_of(backend, construct) -> str | None:
    record = backend.record_for(construct.construct_id)
    if any(held is construct for held, _ in backend.replay.skipped_rows()):
        return "replaying"
    if record.available:
        return "mid_sequence" if record.pending is None else "follow_up_in_flight"
    if record.pending is not None and record.invocations_issued == 1:
        return "before_first_reply"
    return None


def apply_edit(backend, twins, references, kind, selector, new_state) -> None:
    """One player edit, applied alike to both twins and both reference clones."""
    cells = twins[0].cells
    levers = [i for i, cell in enumerate(cells) if cell.component is ComponentType.LEVER]
    if kind == "toggle_lever" and not levers:
        kind = "set_state"
    index = levers[selector % len(levers)] if kind == "toggle_lever" else selector % len(cells)
    for construct, reference in zip(twins, references):
        position = construct.cells[index].position
        if kind == "toggle_lever":
            # The edit reaches the construct first, the backend hears of it after.
            toggle_lever(construct, position)
            backend.on_player_modify(construct.construct_id, position)
            toggle_lever(reference, position)
        elif kind == "set_state":
            backend.on_player_modify(construct.construct_id, position)
            cell_at(construct, position).state = new_state
            set_cell(reference, position, new_state)
        else:  # terrain next to the construct: only the timestamp moves
            backend.on_player_modify(construct.construct_id, position.offset(dy=-1))
            reference.player_modify(position.offset(dy=-1))


def run_case(shape, a, b, anchor_a, anchor_b, config, schedule, seed=0) -> set[str]:
    """Drive the twins through ``schedule``; returns the phases edits landed in."""
    engine = SimulationEngine(seed=seed)
    platform = FaasPlatform(engine, provider=AWS_LAMBDA)
    inner = SimulationHandler()
    matrices_by_key = defaultdict(list)

    def handler(request):
        output = inner(request)
        matrices_by_key[request.cache_key()].append(
            (request.construct_id, output.value.sequence.states)
        )
        return output

    platform.register(
        FunctionDefinition(name=SC_SIMULATION_FUNCTION, handler=handler, memory_mb=1769)
    )
    backend = SpeculativeConstructBackend(engine, platform, config)
    twins = [SHAPES[shape](anchor, a, b) for anchor in (anchor_a, anchor_b)]
    references = [clone_construct(construct) for construct in twins]
    for construct in twins:
        backend.register_construct(construct)
    simulator = ReferenceConstructSimulator()

    landed: set[str] = set()
    queue = list(schedule)
    waiting_since = 0
    fire_at = None
    tick = 0
    end_tick = None
    while end_tick is None or tick < end_tick:
        if queue:
            phase, delay, kind, selector, new_state = queue[0]
            if fire_at is None and phase_of(backend, twins[0]) == phase:
                fire_at = tick + delay
            if fire_at == tick:
                if phase_of(backend, twins[0]) == phase:
                    landed.add(phase)
                apply_edit(backend, twins, references, kind, selector, new_state)
            if fire_at == tick or (
                fire_at is None and tick - waiting_since >= PHASE_TIMEOUT_TICKS
            ):
                queue.pop(0)
                waiting_since, fire_at = tick, None
        elif end_tick is None:
            end_tick = max(MIN_TICKS, tick + TAIL_TICKS)

        report = backend.tick(tick)
        engine.advance_by(50.0)
        tick += 1
        assert report.total_constructs == report.advanced == 2
        assert report.merged_speculative + report.simulated_locally == 2
        for construct, reference in zip(twins, references):
            simulator.step(reference)
            assert construct.step == reference.step == tick
            assert construct.snapshot().digest() == reference.snapshot().digest(), (
                f"{construct.name} diverged from the reference at step {tick}"
            )
        assert backend.verify_states()

    # One handler, one matrix per distinct request: structurally identical
    # constructs in the same state share the object, wherever they stand.
    first_key = next(iter(matrices_by_key))
    assert {cid for cid, _ in matrices_by_key[first_key]} == {c.construct_id for c in twins}
    for served in matrices_by_key.values():
        assert all(matrix is served[0][1] for _, matrix in served)
    return landed


@settings(max_examples=examples(40))
@given(
    shape=st.sampled_from(sorted(SHAPES)),
    a=st.integers(min_value=0, max_value=12),
    b=st.integers(min_value=0, max_value=12),
    anchor_a=anchors,
    anchor_b=anchors,
    config=configs,
    schedule=st.lists(edits, max_size=4),
    seed=st.integers(min_value=0, max_value=3),
)
def test_speculative_backend_matches_the_reference_under_generated_edits(
    shape, a, b, anchor_a, anchor_b, config, schedule, seed
):
    run_case(shape, a, b, anchor_a, anchor_b, config, schedule, seed)


@pytest.mark.parametrize(
    "shape, config, phase",
    [
        ("counter_farm", ServoConfig(steps_per_invocation=40, tick_lead=10), "before_first_reply"),
        ("sized_aperiodic", ServoConfig(steps_per_invocation=60, tick_lead=0), "mid_sequence"),
        ("counter_farm", ServoConfig(steps_per_invocation=30, tick_lead=25), "follow_up_in_flight"),
        # A settled wire line is parked (period 1); a clock replays its loop.
        ("wire_line_lever", ServoConfig(steps_per_invocation=20, tick_lead=5), "replaying"),
        # Five steps are shorter than the clock's period of 7, so no sequence
        # closes a loop and the looping construct still has a finite one.
        ("clock", ServoConfig(steps_per_invocation=5), "mid_sequence"),
        ("clock", ServoConfig(steps_per_invocation=20, tick_lead=5), "replaying"),
    ],
)
def test_each_phase_is_reachable_and_survives_an_edit(shape, config, phase):
    """The four phases the generated schedules wait for are real: an edit lands in each."""
    schedule = [(phase, 1, "toggle_lever", 0, 1), (phase, 0, "set_state", 3, 2)]
    landed = run_case(shape, 5, 1, BlockPos(-3, 64, -2), BlockPos(37, 9, -20), config, schedule)
    assert landed == {phase}
