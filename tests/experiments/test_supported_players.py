"""Figure 12's supported-player reading matches its quadratic executable spec.

The generated series are what a run records: tick start times in order
(ticks of 50 ms or longer, ties included), durations around the 50 ms budget
and a connected-player count that rises over the run.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_supported_players as reference
from repro.experiments.fig12_terrain_scalability import supported_players_from_series

from hypothesis_profiles import examples

GAPS = st.sampled_from([0.0, 50.0, 50.0, 50.0, 61.25, 180.0, 2500.0, 7000.0])
DURATIONS = st.sampled_from([8.0, 35.5, 49.0, 50.0, 50.0000001, 64.0, 210.0])


@settings(max_examples=examples(150))
@given(
    start=st.sampled_from([0.0, 1000.0, 123.456]),
    ticks=st.lists(st.tuples(GAPS, DURATIONS, st.integers(0, 2)), min_size=1, max_size=300),
)
def test_the_sliced_windows_match_the_rescanning_spec(start, ticks):
    times = list(itertools.accumulate((gap for gap, _, _ in ticks), initial=start))[1:]
    durations = [duration for _, duration, _ in ticks]
    players = [float(count) for count in itertools.accumulate(joined for _, _, joined in ticks)]
    assert supported_players_from_series(
        times, durations, times, players
    ) == reference.supported_players_from_series(times, durations, times, players)


def test_a_long_run_reads_its_crossing():
    """16,000 ticks: the budget is crossed once the load passes 300 players."""
    times = [50.0 * index for index in range(16_000)]
    players = [float(index // 40) for index in range(16_000)]
    durations = [20.0 + players[index] / 10.0 for index in range(16_000)]
    expected = reference.supported_players_from_series(times, durations, times, players)
    assert supported_players_from_series(times, durations, times, players) == expected
    assert 290 <= expected <= 310
