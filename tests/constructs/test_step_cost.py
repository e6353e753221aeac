"""Step-cost guard: a construct step moves arrays, it visits no ``Cell``.

Python-frame and C-call counts under ``sys.setprofile`` repeat exactly on any
machine, so the bounds cannot flake.  The path this guards against rebuilt
the batch vector from ``cell.state`` one generator resume per cell per step
(``constructs.py_calls_per_tick`` 2 307 of ``construct_fleet``'s 2 580) and
merged a speculative row with one attribute store per cell.  The kernel
reduces no rows: a per-row ``max(axis=1)`` over a (cells × slots) gather cost
several times the column fold that replaced it.  A construct that replays its
loop costs no call at all in either backend (a speculative one once it merged
a row inside its reply's loop), and a group that gave up its loop search costs
only its step.
"""

from __future__ import annotations

import gc
import sys

import numpy as np
import pytest

from repro.constructs.batched import BatchedCircuitStepper, CircuitBatchLayout, advance_states
from repro.constructs.compiled import compile_circuit
from repro.constructs.library import (
    build_adder,
    build_clock,
    build_counter_farm,
    build_lamp_grid,
    build_piston_door,
    build_sized_construct,
    build_wire_line,
)
from repro.core import ServoConfig
from repro.core.offload import SC_SIMULATION_FUNCTION, SimulationHandler
from repro.core.speculative import SpeculativeConstructBackend
from repro.faas import AWS_LAMBDA, FaasPlatform, FunctionDefinition
from repro.server.sc_engine import LOOP_SEARCH_ROWS, LocalConstructBackend
from repro.sim import SimulationEngine
from repro.world.coords import BlockPos

#: per circuit: one ``append`` of its modification counter; nothing per cell
CALLS_PER_CIRCUIT = 1
#: a warm step's fixed part, measured: ``step_batch``, its list comprehension,
#: ``concatenate``, ``advance_states`` (``zeros``, ``copy``, the hoppers'
#: ``where``), two ``len`` and the closing ``setprofile``; ufunc calls and
#: indexing enter no profiled call
FIXED_CALLS = 11
#: per merged construct of a finite sequence (30 today): finding the valid
#: sequence that covers the step, ``row_at`` + ``apply_row``, offering it to
#: the loop replay, then the phase-3 bookkeeping — record lookups and list
#: scans over at most a few replies, nothing per cell
CALLS_PER_MERGE = 32
#: per replaying construct: none, as its next row is a view handed out by a
#: loop that makes no call (a copy of the row would cost one C call)
CALLS_PER_REPLAY = 0


def entered(action) -> list[str]:
    """Run ``action``; returns the name of every Python frame and C call it entered.

    A ufunc method is named after its ufunc (``maximum.reduce``).
    """
    names = []

    def on_event(frame, event, argument):
        if event == "call":
            names.append(frame.f_code.co_name)
        elif event == "c_call":
            owner = getattr(argument, "__self__", None)
            names.append(
                f"{owner.__name__}.{argument.__name__}"
                if isinstance(owner, np.ufunc)
                else argument.__qualname__
            )

    # A collection inside the window would count the finalizers it runs.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(on_event)
    try:
        action()
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    return names


def count_calls(action) -> int:
    """Run ``action``; returns how many Python frames and C calls it entered."""
    return len(entered(action))


def warm_step_calls(circuit_count: int, wires: int) -> int:
    """Calls of one ``step_batch`` of ``circuit_count`` wire lines, layout already packed."""
    circuits = [
        compile_circuit(build_wire_line(wires, BlockPos(0, 64, 4 * index)))
        for index in range(circuit_count)
    ]
    stepper = BatchedCircuitStepper(min_batch_circuits=1)
    stepper.step_batch(circuits)
    calls = count_calls(lambda: stepper.step_batch(circuits))
    assert stepper.batched_steps == 2 * circuit_count
    return calls


def test_a_batched_step_costs_a_constant_plus_one_call_per_circuit():
    base = warm_step_calls(16, wires=6)
    assert warm_step_calls(48, wires=6) - base == CALLS_PER_CIRCUIT * 32
    assert base - CALLS_PER_CIRCUIT * 16 <= FIXED_CALLS


def test_the_neighbour_max_folds_columns_and_reduces_no_rows():
    # Every component kind, and wires with five neighbours in the lamp grid.
    fleet = (
        build_adder(),
        build_piston_door(),
        build_counter_farm(),
        build_lamp_grid(4, 3),
        build_wire_line(3, powered=True),
    )
    circuits = [compile_circuit(construct) for construct in fleet]
    layout = CircuitBatchLayout(circuits)
    assert len(layout.columns) == 5
    states = np.concatenate([circuit.construct.states for circuit in circuits])
    calls = entered(lambda: advance_states(layout, states))
    # ``ndarray.max(axis=1)`` enters numpy's ``_amax`` frame, and it and
    # ``np.max`` / ``np.maximum.reduce`` all end in ``maximum.reduce``.
    assert calls.count("_amax") == 0
    assert calls.count("maximum.reduce") == 0


@pytest.mark.parametrize("circuit_count", [8, 40])
def test_a_batched_step_costs_the_same_when_every_circuit_doubles(circuit_count):
    # A wire line of n wires has n + 2 cells.
    assert warm_step_calls(circuit_count, wires=6) == warm_step_calls(circuit_count, wires=14)


def speculative_backend(engine) -> SpeculativeConstructBackend:
    platform = FaasPlatform(engine, provider=AWS_LAMBDA)
    platform.register(
        FunctionDefinition(
            name=SC_SIMULATION_FUNCTION, handler=SimulationHandler(), memory_mb=1769
        )
    )
    return SpeculativeConstructBackend(engine, platform, ServoConfig())


def merge_tick_calls(engine, construct_count: int, blocks: int) -> int:
    """Calls of one backend tick in which every construct merges a speculative row."""
    backend = speculative_backend(engine)
    for index in range(construct_count):
        # A hopper makes the sequence aperiodic: merged every tick, never replayed.
        backend.register_construct(
            build_sized_construct(blocks, origin=BlockPos(0, 64, 16 * index), looping=False)
        )
    for tick in range(120):
        backend.tick(tick)
        engine.advance_by(50.0)
    reports = []
    calls = count_calls(lambda: reports.append(backend.tick(120)))
    assert reports[0].merged_speculative == construct_count
    assert reports[0].skipped_quiescent == 0
    assert backend.verify_states()
    return calls


def test_a_speculative_merge_costs_a_constant_whatever_the_construct_size(engine):
    small = merge_tick_calls(engine, 4, blocks=6)
    assert merge_tick_calls(engine, 4, blocks=30) == small
    per_merge = (merge_tick_calls(engine, 12, blocks=6) - small) / 8
    assert per_merge <= CALLS_PER_MERGE


#: the tick counted: every clock replays by then
REPLAY_TICK = 80
BACKENDS = {
    "local": lambda engine: LocalConstructBackend(interval=1),
    "speculative": speculative_backend,
}


def replay_tick_calls(backend_name: str, construct_count: int) -> int:
    """Calls of one construct tick in which ``construct_count`` clocks replay their loop."""
    engine = SimulationEngine(seed=1)
    backend = BACKENDS[backend_name](engine)
    for index in range(construct_count):
        backend.register_construct(build_clock(period=6, origin=BlockPos(0, 64, 4 * index)))
    # Long enough for every speculative clock's first reply to arrive.
    for tick in range(REPLAY_TICK):
        backend.tick(tick)
        engine.advance_by(50.0)
    replaying = sorted(replay.construct.construct_id for replay in backend.replay.replaying)
    assert replaying == [construct.construct_id for construct in backend.constructs()]
    reports = []
    calls = count_calls(lambda: reports.append(backend.tick(REPLAY_TICK)))
    assert reports[0].advanced == reports[0].skipped_quiescent == construct_count
    assert backend.verify_states()
    return calls


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_a_replayed_construct_costs_no_call(backend_name):
    calls = replay_tick_calls(backend_name, 12) - replay_tick_calls(backend_name, 4)
    assert calls == CALLS_PER_REPLAY * 8


def given_up_tick_calls(farm_count: int) -> int:
    """Calls of one batched tick of ``farm_count`` distinct counter farms that gave up their search."""
    backend = LocalConstructBackend(interval=1)
    for index in range(farm_count):
        backend.register_construct(build_counter_farm(2 + index, BlockPos(0, 64, 8 * index)))
    for tick in range(LOOP_SEARCH_ROWS):
        backend.tick(tick)
    assert [group.detector for group in backend._stepped] == [None] * farm_count
    return count_calls(lambda: backend.tick(LOOP_SEARCH_ROWS))


def test_a_group_that_gave_up_its_loop_search_costs_only_its_step():
    assert given_up_tick_calls(8) - given_up_tick_calls(4) == CALLS_PER_CIRCUIT * 4
