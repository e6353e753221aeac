"""Tests for the tick cost models."""

from dataclasses import replace

import numpy as np
import pytest

from repro.server.costmodel import (
    MINECRAFT_COST_MODEL,
    OPENCRAFT_COST_MODEL,
    SERVO_COST_MODEL,
    TickWork,
)


@pytest.fixture
def rng_zero_noise():
    return np.random.default_rng(0)


def mean_duration(model, work, samples=300):
    rng = np.random.default_rng(1)
    return float(np.mean([model.duration_ms(work, rng) for _ in range(samples)]))


def test_empty_tick_costs_roughly_the_base(rng_zero_noise):
    for model in (OPENCRAFT_COST_MODEL, MINECRAFT_COST_MODEL, SERVO_COST_MODEL):
        duration = mean_duration(model, TickWork())
        assert duration == pytest.approx(model.base_ms, rel=0.2)


def test_duration_grows_with_players():
    few = mean_duration(OPENCRAFT_COST_MODEL, TickWork(players=10))
    many = mean_duration(OPENCRAFT_COST_MODEL, TickWork(players=200))
    assert many > few
    assert many - few == pytest.approx(190 * OPENCRAFT_COST_MODEL.per_player_ms, rel=0.15)


def test_the_broadcast_mode_a_server_does_not_run_adds_exactly_nothing():
    """Both broadcast terms are always summed; the idle one must keep every bit.

    Full fan-out work has no entries or batches, interest work sends no
    player the full fan-out, and ``x + 0.0 == x``: with noise and spikes off
    each duration is the two-branch formula's sum, bit for bit.
    """
    for model in (OPENCRAFT_COST_MODEL, MINECRAFT_COST_MODEL, SERVO_COST_MODEL):
        quiet = replace(model, noise_sigma=0.0, spike_probability=0.0)
        rng = np.random.default_rng(0)
        fanout = quiet.duration_ms(TickWork(players=37), rng)
        assert fanout == model.base_ms + model.per_player_ms * 37
        batches = quiet.duration_ms(TickWork(update_entries_flushed=11, update_flushes=5), rng)
        assert batches == (
            model.base_ms + model.per_update_entry_ms * 11 + model.per_update_flush_ms * 5
        )


def test_minecraft_per_player_cost_higher_than_opencraft():
    assert MINECRAFT_COST_MODEL.per_player_ms > OPENCRAFT_COST_MODEL.per_player_ms


def test_construct_costs_reproduce_figure7_anchor_points():
    """The calibration constants that drive the Figure 7a thresholds."""
    opencraft_100 = OPENCRAFT_COST_MODEL.construct_cost(100)
    opencraft_200 = OPENCRAFT_COST_MODEL.construct_cost(200)
    minecraft_100 = MINECRAFT_COST_MODEL.construct_cost(100)
    minecraft_200 = MINECRAFT_COST_MODEL.construct_cost(200)
    # 100 constructs nearly exhaust Opencraft's 50 ms budget; 200 blow it.
    assert 35.0 < opencraft_100 < 50.0
    assert opencraft_200 > 50.0
    # Minecraft handles 100 constructs with room for ~90 players but not 200.
    assert minecraft_100 < 15.0
    assert minecraft_200 + MINECRAFT_COST_MODEL.base_ms > 47.0


def test_servo_merge_path_is_much_cheaper_than_local_simulation():
    servo_merge = SERVO_COST_MODEL.per_merge_ms * 200
    opencraft_local = OPENCRAFT_COST_MODEL.construct_cost(200)
    assert servo_merge < opencraft_local / 4


def test_local_generation_interference_only_for_baselines():
    assert OPENCRAFT_COST_MODEL.per_local_generation_ms > 0
    assert MINECRAFT_COST_MODEL.per_local_generation_ms > 0
    assert SERVO_COST_MODEL.per_local_generation_ms == 0
    assert SERVO_COST_MODEL.per_backlog_chunk_ms == 0


def test_backlog_interference_is_capped():
    work = TickWork(generation_backlog=100_000)
    duration = mean_duration(OPENCRAFT_COST_MODEL, work)
    capped = OPENCRAFT_COST_MODEL.base_ms + OPENCRAFT_COST_MODEL.backlog_interference_cap_ms
    assert duration == pytest.approx(capped, rel=0.15)


def test_construct_tick_interval_creates_bimodality():
    assert OPENCRAFT_COST_MODEL.construct_tick_interval == 2
    assert MINECRAFT_COST_MODEL.construct_tick_interval == 2
    assert SERVO_COST_MODEL.construct_tick_interval == 1


def test_duration_is_noisy_but_positive():
    rng = np.random.default_rng(3)
    durations = [
        OPENCRAFT_COST_MODEL.duration_ms(TickWork(players=50), rng) for _ in range(500)
    ]
    assert min(durations) > 0
    assert len(set(durations)) > 400  # noise makes samples distinct
