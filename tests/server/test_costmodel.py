"""Tests for the tick cost models: exact on the breakdown, exact on the noise draws."""

import copy

import numpy as np

from repro.server.costmodel import (
    MINECRAFT_COST_MODEL,
    NOISE_SIGMA,
    OPENCRAFT_COST_MODEL,
    SERVO_COST_MODEL,
    SPIKE_MEDIAN_MS,
    SPIKE_PROBABILITY,
    SPIKE_SIGMA,
    TickWork,
)

MODELS = (OPENCRAFT_COST_MODEL, MINECRAFT_COST_MODEL, SERVO_COST_MODEL)

TERMS = [
    "base",
    "broadcast.players",
    "broadcast.entries",
    "broadcast.flushes",
    "actions",
    "constructs.local",
    "constructs.merged",
    "chunks.integrated",
    "chunks.local_generations",
    "chunks.backlog",
    "chunks.streamed",
    "chunks.loaded",
]

#: a tick that does some of every kind of work
BUSY = TickWork(
    players=40,
    actions=90,
    constructs_simulated_locally=12,
    constructs_merged=30,
    constructs_total=42,
    chunks_integrated=2,
    local_generations_completed=1,
    generation_backlog=7,
    chunks_streamed=3,
    loaded_chunks=400,
    update_entries_flushed=11,
    update_flushes=5,
)


def pre_noise(costs):
    """The breakdown's sum, added left to right as ``duration_ms`` adds it."""
    total = 0.0
    for cost in costs:
        total += cost
    return total


def noised(cost, rng):
    """``cost`` times one noise draw from ``rng``, plus a spike if one is drawn.

    Returns the duration and whether it spiked.
    """
    cost *= float(rng.lognormal(mean=0.0, sigma=NOISE_SIGMA))
    spiked = bool(rng.random() < SPIKE_PROBABILITY)
    if spiked:
        cost += float(rng.lognormal(mean=np.log(SPIKE_MEDIAN_MS), sigma=SPIKE_SIGMA))
    return cost, spiked


def test_the_breakdown_names_every_term_in_summation_order():
    for model in MODELS:
        assert list(model.breakdown(BUSY)) == TERMS


def test_an_empty_tick_costs_exactly_the_base():
    for model in MODELS:
        costs = model.breakdown(TickWork())
        assert costs == {**dict.fromkeys(TERMS, 0.0), "base": model.base_ms}


def test_each_term_is_its_rate_times_its_work():
    for model in MODELS:
        costs = model.breakdown(BUSY)
        assert costs["broadcast.players"] == model.per_player_ms * 40
        assert costs["broadcast.entries"] == model.per_update_entry_ms * 11
        assert costs["broadcast.flushes"] == model.per_update_flush_ms * 5
        assert costs["actions"] == model.per_action_ms * 90
        assert costs["constructs.local"] == model.construct_cost(12)
        assert costs["constructs.merged"] == model.per_merge_ms * 30
        assert costs["chunks.integrated"] == model.per_chunk_integration_ms * 2
        assert costs["chunks.local_generations"] == model.per_local_generation_ms * 1
        assert costs["chunks.backlog"] == model.per_backlog_chunk_ms * 7
        assert costs["chunks.streamed"] == model.per_chunk_streamed_ms * 3
        assert costs["chunks.loaded"] == model.per_loaded_chunk_ms * 400


def test_more_players_change_only_the_fan_out_term():
    few = OPENCRAFT_COST_MODEL.breakdown(TickWork(players=10))
    many = OPENCRAFT_COST_MODEL.breakdown(TickWork(players=200))
    assert many == {**few, "broadcast.players": OPENCRAFT_COST_MODEL.per_player_ms * 200}
    assert many["broadcast.players"] > few["broadcast.players"]


def test_duration_is_the_breakdown_sum_times_the_noise_plus_the_spike():
    """Bit for bit against a cloned generator, which must end in the same state.

    The 3,000 draws per model include spikes, so both branches are compared.
    """
    for model in MODELS:
        rng = np.random.default_rng(11)
        clone = copy.deepcopy(rng)
        spikes = 0
        for players in range(3000):
            work = TickWork(players=players % 150, loaded_chunks=400, actions=players % 7)
            expected, spiked = noised(pre_noise(model.breakdown(work).values()), clone)
            spikes += spiked
            assert model.duration_ms(work, rng) == expected
        assert rng.bit_generator.state == clone.bit_generator.state
        assert spikes > 0


def test_the_broadcast_mode_a_server_does_not_run_adds_exactly_nothing():
    """Every broadcast term is always summed; the idle ones must keep every bit.

    Full fan-out work has no entries or batches, interest work sends no
    player the full fan-out, and ``x + 0.0 == x``: each duration is the
    one-mode formula's sum, noised from the same draws, bit for bit.
    """
    for model in MODELS:
        rng = np.random.default_rng(0)
        clone = copy.deepcopy(rng)
        fanout = TickWork(players=37)
        assert model.breakdown(fanout)["broadcast.entries"] == 0.0
        assert model.breakdown(fanout)["broadcast.flushes"] == 0.0
        assert model.duration_ms(fanout, rng) == noised(
            model.base_ms + model.per_player_ms * 37, clone
        )[0]
        batches = TickWork(update_entries_flushed=11, update_flushes=5)
        assert model.breakdown(batches)["broadcast.players"] == 0.0
        assert model.duration_ms(batches, rng) == noised(
            model.base_ms + model.per_update_entry_ms * 11 + model.per_update_flush_ms * 5,
            clone,
        )[0]


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
    servo_merge = SERVO_COST_MODEL.breakdown(TickWork(constructs_merged=200))
    opencraft_local = OPENCRAFT_COST_MODEL.breakdown(TickWork(constructs_simulated_locally=200))
    assert servo_merge["constructs.merged"] < opencraft_local["constructs.local"] / 4


def test_local_generation_interference_only_for_baselines():
    work = TickWork(local_generations_completed=3, generation_backlog=20)
    for model in (OPENCRAFT_COST_MODEL, MINECRAFT_COST_MODEL):
        assert model.breakdown(work)["chunks.local_generations"] > 0
        assert model.breakdown(work)["chunks.backlog"] > 0
    assert SERVO_COST_MODEL.breakdown(work)["chunks.local_generations"] == 0.0
    assert SERVO_COST_MODEL.breakdown(work)["chunks.backlog"] == 0.0


def test_backlog_interference_is_capped():
    costs = OPENCRAFT_COST_MODEL.breakdown(TickWork(generation_backlog=100_000))
    assert costs["chunks.backlog"] == OPENCRAFT_COST_MODEL.backlog_interference_cap_ms


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
