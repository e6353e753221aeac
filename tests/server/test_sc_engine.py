"""Tests for the baseline (local) construct backend."""

import pytest

from repro.constructs.library import build_clock, build_wire_line, standard_construct
from repro.constructs.compiled import compile_circuit
from construct_helpers import cell_at
from repro.server.sc_engine import LocalConstructBackend


def test_constructs_are_simulated_every_other_tick():
    backend = LocalConstructBackend(interval=2)
    construct = build_clock(period=4)
    backend.register_construct(construct)
    reports = [backend.tick(tick) for tick in range(6)]
    # Ticks 0, 2, 4 are construct ticks; 1, 3, 5 are not.
    assert [r.construct_tick for r in reports] == [True, False, True, False, True, False]
    assert construct.step == 3
    assert sum(r.simulated_locally for r in reports) == 3


def test_identical_constructs_stay_in_lockstep_with_reference_simulation():
    backend = LocalConstructBackend(interval=1)
    constructs = [standard_construct(i) for i in range(4)]
    for construct in constructs:
        backend.register_construct(construct)
    reference = standard_construct(99)
    compiled = compile_circuit(reference)
    for tick in range(12):
        backend.tick(tick)
        compiled.step()
    for construct in constructs:
        assert construct.step == reference.step
        assert [cell.state for cell in construct.cells] == [
            cell.state for cell in reference.cells
        ]
    assert backend.verify_states()


def test_report_counts_every_construct():
    backend = LocalConstructBackend(interval=1)
    for index in range(5):
        backend.register_construct(standard_construct(index))
    report = backend.tick(0)
    assert report.total_constructs == 5
    assert report.simulated_locally == 5
    assert report.advanced == 5


def test_registration_numbers_unnumbered_constructs_and_rejects_a_taken_id():
    backend = LocalConstructBackend()
    explicit = build_clock(4)
    explicit.construct_id = 5
    first, second = build_clock(4), build_clock(4)
    for construct in (first, explicit, second):
        backend.register_construct(construct)
    assert (first.construct_id, second.construct_id) == (1, 6)
    taken = build_clock(4)
    taken.construct_id = 5
    with pytest.raises(ValueError, match="already registered"):
        backend.register_construct(taken)
    assert backend.constructs() == [first, explicit, second]


def test_remove_construct_stops_simulation():
    backend = LocalConstructBackend(interval=1)
    construct = build_clock()
    backend.register_construct(construct)
    backend.remove_construct(construct.construct_id)
    report = backend.tick(0)
    assert report.total_constructs == 0
    assert construct.step == 0


def test_player_modification_rebuilds_groups_and_keeps_divergent_constructs_separate():
    backend = LocalConstructBackend(interval=1)
    first = build_wire_line(length=3, powered=False)
    second = build_wire_line(length=3, powered=False)
    backend.register_construct(first)
    backend.register_construct(second)
    # Toggle the lever of the first construct only: states must diverge.
    backend.on_player_modify(first.construct_id, first.positions[0])
    cell_at(first, first.positions[0]).state = 1
    for tick in range(6):
        backend.tick(tick)
    lamp_first = cell_at(first, first.positions[-1]).state
    lamp_second = cell_at(second, second.positions[-1]).state
    assert lamp_first == 1
    assert lamp_second == 0
    assert backend.verify_states()


def test_no_constructs_is_a_cheap_noop():
    backend = LocalConstructBackend(interval=2)
    report = backend.tick(0)
    assert report.total_constructs == 0
    assert report.simulated_locally == 0
