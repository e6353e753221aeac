"""Tests for named random streams."""

from repro.sim.rng import RandomStreams


def test_same_seed_and_name_give_identical_sequences():
    first = RandomStreams(seed=7).stream("players")
    second = RandomStreams(seed=7).stream("players")
    assert list(first.integers(0, 1000, size=10)) == list(second.integers(0, 1000, size=10))


def test_different_names_give_independent_sequences():
    streams = RandomStreams(seed=7)
    a = list(streams.stream("a").integers(0, 1000, size=10))
    b = list(streams.stream("b").integers(0, 1000, size=10))
    assert a != b


def test_different_seeds_give_different_sequences():
    a = list(RandomStreams(seed=1).stream("x").integers(0, 10 ** 6, size=8))
    b = list(RandomStreams(seed=2).stream("x").integers(0, 10 ** 6, size=8))
    assert a != b


def test_stream_is_cached_per_name():
    streams = RandomStreams(seed=3)
    assert streams.stream("same") is streams.stream("same")
