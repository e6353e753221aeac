"""Tests for loop detection and compressed state sequences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constructs.library import build_clock, build_counter_farm
from repro.constructs.compiled import compile_circuit
from repro.constructs.loop_detection import (
    CompressedStateSequence,
    LoopDetector,
    compress_trace,
)

from hypothesis_profiles import examples


def make_rows(values):
    """One-cell state rows, one per step."""
    return [np.array([value], dtype=np.int64) for value in values]


def simulate_rows(construct, steps):
    """The construct's state vector (sorted cell order) after each of ``steps`` steps."""
    rows = []
    for _ in range(steps):
        compile_circuit(construct).step()
        rows.append(construct.states.copy())
    return rows


def test_compress_trace_without_repeats_keeps_everything():
    sequence = compress_trace(0, make_rows([1, 2, 3, 4]))
    assert not sequence.is_looping
    assert sequence.explicit_length == 4
    assert sequence.cell_count == 1
    assert sequence.covers(4)
    assert not sequence.covers(5)


def test_compress_trace_detects_a_cycle():
    # Values 2,3,4 repeat: the state at index 4 equals the state at index 1.
    sequence = compress_trace(0, make_rows([1, 2, 3, 4, 2]))
    assert sequence.is_looping
    assert sequence.loop_start == 1
    assert sequence.states.tolist() == [[1], [2], [3], [4]]
    assert sequence.states.dtype == np.int64


def test_compress_trace_stops_reading_at_the_first_repeat():
    consumed = []

    def rows():
        for row in make_rows([1, 2, 1, 9, 9]):
            consumed.append(int(row[0]))
            yield row

    sequence = compress_trace(0, rows())
    assert consumed == [1, 2, 1]
    assert (sequence.loop_start, sequence.explicit_length) == (0, 2)


def test_looping_sequence_replays_forever():
    sequence = compress_trace(0, make_rows([1, 2, 3, 4, 2]))
    # step 2 -> 2, step 5 -> 2, step 8 -> 2, ...
    assert sequence.row_at(2).tolist() == [2]
    assert sequence.row_at(5).tolist() == [2]
    values = [sequence.row_at(step).tolist()[0] for step in range(1, 11)]
    assert values == [1, 2, 3, 4, 2, 3, 4, 2, 3, 4]
    assert sequence.covers(10 ** 6)
    assert sequence.row_at(10 ** 6).tolist() == [[2, 3, 4][(10 ** 6 - 2) % 3]]


def test_state_at_restamps_the_step_counter():
    """Merging the row for a step sets the cells and stamps that step on the construct."""
    construct = build_clock(period=4, lamps=1)
    sequence = compress_trace(0, simulate_rows(build_clock(period=4, lamps=1), 20))
    assert sequence.is_looping
    construct.apply_row(sequence.row_at(1000), step=1000)
    assert construct.step == 1000
    # Cell states stay plain Python ints, never numpy scalars.
    assert all(type(cell.state) is int for cell in construct.cells)
    reference = build_clock(period=4, lamps=1)
    for _ in range(1000):
        compile_circuit(reference).step()
    assert [c.state for c in construct.cells] == [c.state for c in reference.cells]


def test_state_at_outside_coverage_raises():
    sequence = compress_trace(10, make_rows([1, 2]))
    assert sequence.last_step == 12
    with pytest.raises(KeyError):
        sequence.row_at(10)  # before the first produced state
    with pytest.raises(KeyError):
        sequence.row_at(13)  # past the end of a non-looping sequence
    looping = compress_trace(10, make_rows([1, 2, 1]))
    with pytest.raises(KeyError):
        looping.row_at(10)  # a loop extends forwards only
    assert looping.row_at(13).tolist() == [1]


def test_a_sequence_is_a_read_only_matrix():
    sequence = compress_trace(0, make_rows([1, 2, 3]))
    with pytest.raises(ValueError):
        sequence.states[0, 0] = 9
    row = sequence.row_at(1)
    with pytest.raises(ValueError):
        row[0] = 9  # a row is a view of the read-only matrix, not a copy
    assert row.base is sequence.states and row.tolist() == [1]
    with pytest.raises(ValueError, match="matrix"):
        CompressedStateSequence(0, np.zeros(3, dtype=np.int64))
    empty = compress_trace(0, [])
    assert (empty.explicit_length, empty.is_looping, empty.covers(1)) == (0, False, False)


def test_settled_by_needs_a_single_state_loop_that_has_been_entered():
    settling = compress_trace(0, make_rows([5, 3, 1, 1]))  # prefix 5,3 then 1 forever
    assert (settling.loop_start, settling.explicit_length) == (2, 3)
    assert [settling.settled_by(step) for step in (1, 2, 3, 4)] == [False, False, True, True]
    assert not compress_trace(0, make_rows([1, 2, 1])).settled_by(50)  # period 2
    assert not compress_trace(0, make_rows([1])).settled_by(50)  # no loop at all


def test_loop_detector_observe_reports_repeat_index():
    detector = LoopDetector()
    one, two, three, two_again, four = make_rows([1, 2, 3, 2, 4])
    assert detector.observe(one) is None
    assert detector.observe(two) is None
    assert detector.observe(three) is None
    assert detector.observe(two_again) == 1  # equal values in another array are one state
    assert detector.observe(four) is None  # a repeat is not recorded as a new state
    assert detector.observe(four[::-1]) == 3  # a view is keyed by its values


def test_clock_construct_trace_compresses_to_its_period():
    sequence = compress_trace(0, simulate_rows(build_clock(period=6, lamps=1), 60))
    assert sequence.is_looping
    assert sequence.explicit_length - sequence.loop_start <= 12
    assert sequence.explicit_length < 60


def test_counter_farm_trace_does_not_compress():
    sequence = compress_trace(0, simulate_rows(build_counter_farm(hoppers=2), 50))
    assert not sequence.is_looping
    assert sequence.explicit_length == 50


def test_compressed_sequence_matches_direct_simulation():
    """Replaying a compressed loop gives exactly the states direct simulation gives."""
    rows = simulate_rows(build_clock(period=4, lamps=2), 40)
    sequence = compress_trace(0, rows)
    assert sequence.explicit_length < 40
    for step in range(1, 41):
        assert sequence.row_at(step).tolist() == rows[step - 1].tolist()


@settings(max_examples=examples(40))
@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=30),
    st.integers(min_value=0, max_value=5),
)
def test_compress_trace_round_trips_any_observed_prefix(values, start_step):
    """Every state the trace contained is reproduced exactly by the compression."""
    rows = make_rows(values)
    sequence = compress_trace(start_step, rows)
    for index, row in enumerate(rows):
        step = start_step + index + 1
        if index >= sequence.explicit_length or not sequence.covers(step):
            # Beyond the detected loop the arbitrary test list is not a
            # deterministic continuation, so no guarantee applies.
            break
        assert sequence.row_at(step).tolist() == row.tolist()
    # The repeat, when there is one, is where the list first revisits a value.
    first_repeat = next((i for i, v in enumerate(values) if v in values[:i]), None)
    if first_repeat is None:
        assert not sequence.is_looping and sequence.explicit_length == len(values)
    else:
        assert sequence.loop_start == values.index(values[first_repeat])
        assert sequence.explicit_length == first_repeat
