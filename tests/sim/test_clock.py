"""Tests for the simulation clock."""

import pytest

from repro.sim.clock import ClockError, SimulationClock


def test_clock_starts_at_zero_by_default():
    clock = SimulationClock()
    assert clock.now_ms == 0.0


def test_advance_to_absolute_time():
    clock = SimulationClock()
    clock.advance_to(123.0)
    assert clock.now_ms == 123.0


def test_advance_to_current_time_is_noop():
    clock = SimulationClock()
    clock.advance_to(42.0)
    clock.advance_to(42.0)
    assert clock.now_ms == 42.0


def test_advance_to_past_raises():
    clock = SimulationClock()
    clock.advance_to(100.0)
    with pytest.raises(ClockError):
        clock.advance_to(99.0)
