"""Tests for player behaviours (Table II) and bots."""

import math

import numpy as np
import pytest
from stub_host import SPAWN, StubHost

from repro.net.message import MessageKind
from repro.workload.behavior import (
    BoundedAreaBehavior,
    ConvergeBehavior,
    IncreasingSpeedStarBehavior,
    RandomBehavior,
    StarBehavior,
    WalkerArrays,
    behavior_by_code,
)
from repro.workload.bots import BotSwarm
from repro.world.coords import BlockPos

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def drive(behavior, ticks, seed=0):
    """Run a one-bot swarm for a number of ticks: where it ends up, and all it sent."""
    host = StubHost(seed)
    swarm = BotSwarm([behavior])
    driver = swarm.install(host)
    messages = []
    for tick in range(ticks):
        driver(host, tick)
        messages.extend(host.end_tick())
    return swarm.bots[0].session.avatar.position, messages


def test_bounded_behavior_stays_within_radius():
    behavior = BoundedAreaBehavior()
    position, messages = drive(behavior, 600)
    assert abs(position.x - SPAWN.x) <= behavior.radius_blocks + 1
    assert abs(position.z - SPAWN.z) <= behavior.radius_blocks + 1
    assert all(message.kind is MessageKind.MOVE for message in messages)


def test_star_behavior_moves_away_at_configured_speed():
    behavior = StarBehavior(speed_blocks_per_s=3.0, direction_index=0, direction_count=8)
    position, _ = drive(behavior, 200)  # 10 seconds
    distance = math.hypot(position.x - SPAWN.x, position.z - SPAWN.z)
    assert distance == pytest.approx(30.0, abs=2.0)


def test_star_behavior_directions_fan_out():
    a, _ = drive(StarBehavior(3.0, direction_index=0, direction_count=4), 100)
    b, _ = drive(StarBehavior(3.0, direction_index=1, direction_count=4), 100)
    assert a != b
    # Directions 0 and 1 are 90 degrees apart.
    angle_a = math.atan2(a.z - SPAWN.z, a.x - SPAWN.x)
    angle_b = math.atan2(b.z - SPAWN.z, b.x - SPAWN.x)
    assert abs(abs(angle_a - angle_b) - math.pi / 2) < 0.2


def test_sinc_behavior_speed_increases_over_time():
    behavior = IncreasingSpeedStarBehavior(speed_increase_interval_s=10.0)
    arrays = WalkerArrays([behavior])
    arrays.bind(0, SPAWN)
    arrays.set_active([0])
    rng = np.random.default_rng(0)
    for tick, speed in ((0, 1.0), (200, 2.0), (900, 5.0)):
        arrays.step(tick, 50.0, rng)
        assert arrays.speed[0] == speed


def test_random_behavior_emits_a_mix_of_message_kinds():
    behavior = RandomBehavior()
    rng = np.random.default_rng(7)
    kinds = []
    position = SPAWN
    for tick in range(4000):
        for message in behavior.act(1, position, SPAWN, tick, 50.0, rng):
            kinds.append(message.kind)
            if message.kind is MessageKind.MOVE:
                position = BlockPos(
                    message.payload["x"], message.payload["y"], message.payload["z"]
                )
    observed = {kind: kinds.count(kind) for kind in set(kinds)}
    assert observed.get(MessageKind.MOVE, 0) > 0
    assert (observed.get(MessageKind.PLACE_BLOCK, 0) + observed.get(MessageKind.BREAK_BLOCK, 0)) > 0
    assert (observed.get(MessageKind.CHAT, 0) + observed.get(MessageKind.SET_INVENTORY, 0)) > 0


def test_random_behavior_activity_mix_follows_table_ii_probabilities():
    """The activity draw itself follows the Table II mix (40/30/20/5/5)."""
    behavior = RandomBehavior()
    rng = np.random.default_rng(11)
    moves = edits = idles = chats = inventories = 0
    for _ in range(3000):
        behavior._target = None
        behavior._idle_ticks = 0
        messages = behavior._pick_activity(1, SPAWN, rng)
        if behavior._target is not None:
            moves += 1
        elif behavior._idle_ticks > 0:
            idles += 1
        elif messages and messages[0].kind in (MessageKind.PLACE_BLOCK, MessageKind.BREAK_BLOCK):
            edits += 1
        elif messages and messages[0].kind is MessageKind.CHAT:
            chats += 1
        elif messages and messages[0].kind is MessageKind.SET_INVENTORY:
            inventories += 1
    total = 3000
    assert moves / total == pytest.approx(0.40, abs=0.04)
    assert edits / total == pytest.approx(0.30, abs=0.04)
    assert idles / total == pytest.approx(0.20, abs=0.04)
    assert chats / total == pytest.approx(0.05, abs=0.02)
    assert inventories / total == pytest.approx(0.05, abs=0.02)


def test_random_behavior_is_deterministic_for_a_seed():
    def run():
        return drive(RandomBehavior(), 500, seed=3)

    assert run() == run()


def test_behavior_by_code_dispatch():
    assert isinstance(behavior_by_code("A"), BoundedAreaBehavior)
    assert isinstance(behavior_by_code("C"), ConvergeBehavior)
    assert isinstance(behavior_by_code("R"), RandomBehavior)
    assert isinstance(behavior_by_code("Sinc"), IncreasingSpeedStarBehavior)
    star = behavior_by_code("S8", direction_index=2)
    assert isinstance(star, StarBehavior)
    assert star.speed_blocks_per_s == 8.0
    with pytest.raises(ValueError):
        behavior_by_code("Sfast")
    with pytest.raises(ValueError):
        behavior_by_code("X")


@pytest.mark.parametrize("code", ["Snan", "Sinf", "S1e400", "S-3"])
def test_behavior_by_code_rejects_speeds_nobody_can_walk_at(code):
    """``float()`` reads all four; the first three used to reach ``int(round(x))``."""
    with pytest.raises(ValueError, match="unknown behaviour code"):
        behavior_by_code(code)
