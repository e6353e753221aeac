"""The bots as they were before the swarm was stepped as arrays: the executable spec.

Copied unchanged from ``src/repro/workload/behavior.py`` and
``src/repro/workload/bots.py`` at commit 7742d73 (only the imports and this
docstring differ): every behaviour has a scalar ``act`` that draws from the
shared ``"bots"`` stream one value at a time, and the swarm's driver calls
``BotPlayer.act`` bot by bot.  ``test_swarm_differential.py`` drives this
swarm and the production one side by side and requires the same messages in
the same order and the same generator state after every tick.  Nothing under
``src/``, ``bench/``, ``benchmarks/`` or ``examples/`` imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.net.message import Message, MessageKind
from repro.server.session import PlayerSession
from repro.workload.bots import GameHost, JoinSchedule
from repro.world.block import BlockType
from repro.world.coords import BlockPos


class Behavior:
    """Interface: produce the messages a bot sends this tick."""

    code: str = "?"

    def act(
        self,
        player_id: int,
        position: BlockPos,
        spawn: BlockPos,
        tick_index: int,
        tick_interval_ms: float,
        rng: np.random.Generator,
    ) -> list[Message]:
        raise NotImplementedError


def _move_message(player_id: int, position: BlockPos) -> Message:
    return Message(
        MessageKind.MOVE,
        player_id,
        {"x": position.x, "y": position.y, "z": position.z},
    )


class _ContinuousWalker(Behavior):
    """Shared plumbing: continuous (sub-block) position tracking."""

    def __init__(self) -> None:
        self._float_x: float | None = None
        self._float_z: float | None = None

    def _current(self, position: BlockPos) -> tuple[float, float]:
        if self._float_x is None or self._float_z is None:
            self._float_x = float(position.x)
            self._float_z = float(position.z)
        return self._float_x, self._float_z

    def _move_to(self, player_id: int, position: BlockPos, x: float, z: float) -> Message:
        self._float_x = x
        self._float_z = z
        return _move_message(player_id, BlockPos(int(round(x)), position.y, int(round(z))))


class BoundedAreaBehavior(_ContinuousWalker):
    """Behaviour ``A``: only move actions, inside a bounded area around spawn.

    Used by the simulated-construct experiments because it generates no new
    terrain: the bot performs a random walk clipped to ``radius_blocks``.
    """

    code = "A"

    def __init__(self, radius_blocks: float = 12.0, speed_blocks_per_s: float = 3.0) -> None:
        super().__init__()
        self.radius_blocks = float(radius_blocks)
        self.speed_blocks_per_s = float(speed_blocks_per_s)

    def act(self, player_id, position, spawn, tick_index, tick_interval_ms, rng):
        x, z = self._current(position)
        step = self.speed_blocks_per_s * tick_interval_ms / 1000.0
        angle = rng.uniform(0.0, 2.0 * math.pi)
        new_x = min(max(x + step * math.cos(angle), spawn.x - self.radius_blocks),
                    spawn.x + self.radius_blocks)
        new_z = min(max(z + step * math.sin(angle), spawn.z - self.radius_blocks),
                    spawn.z + self.radius_blocks)
        return [self._move_to(player_id, position, new_x, new_z)]


class ConvergeBehavior(_ContinuousWalker):
    """Behaviour ``C``: converge on one point, then mill around it.

    Models a flash crowd: every bot beelines for the convergence point at
    walking speed and, once within ``crowd_radius_blocks``, degenerates into
    a bounded random walk there.  The entire population ends up in a handful
    of chunks — the worst case for interest management's subscriber index
    (every chunk maps to every player) and the best case for its delta
    batching (one encoded entry serves the whole crowd).

    ``target`` is the convergence point; ``None`` converges on the bot's own
    spawn (one crowd on single-server hosts, where everyone spawns at the
    world spawn).  :meth:`Scenario.run` pins it to the host's global spawn so
    cluster populations — spread across zone and boundary spawns — still form
    a single crowd in one zone.
    """

    code = "C"

    def __init__(
        self,
        speed_blocks_per_s: float = 3.0,
        crowd_radius_blocks: float = 8.0,
        target: BlockPos | None = None,
    ) -> None:
        super().__init__()
        self.speed_blocks_per_s = float(speed_blocks_per_s)
        self.crowd_radius_blocks = float(crowd_radius_blocks)
        self.target = target

    def act(self, player_id, position, spawn, tick_index, tick_interval_ms, rng):
        spawn = self.target if self.target is not None else spawn
        x, z = self._current(position)
        step = self.speed_blocks_per_s * tick_interval_ms / 1000.0
        dx, dz = spawn.x - x, spawn.z - z
        distance = math.hypot(dx, dz)
        if distance > self.crowd_radius_blocks:
            # Still approaching: head straight for the convergence point.
            if distance <= step:
                return [self._move_to(player_id, position, float(spawn.x), float(spawn.z))]
            return [
                self._move_to(
                    player_id, position, x + step * dx / distance, z + step * dz / distance
                )
            ]
        # Arrived: mill around inside the crowd radius.
        angle = rng.uniform(0.0, 2.0 * math.pi)
        new_x = min(max(x + step * math.cos(angle), spawn.x - self.crowd_radius_blocks),
                    spawn.x + self.crowd_radius_blocks)
        new_z = min(max(z + step * math.sin(angle), spawn.z - self.crowd_radius_blocks),
                    spawn.z + self.crowd_radius_blocks)
        return [self._move_to(player_id, position, new_x, new_z)]


class StarBehavior(_ContinuousWalker):
    """Behaviour ``Sx``: walk away from spawn in a fixed direction at x blocks/s.

    Bots get evenly spread directions (a star pattern) so each explores new
    terrain, stress-testing terrain generation.
    """

    def __init__(
        self,
        speed_blocks_per_s: float = 3.0,
        direction_index: int = 0,
        direction_count: int = 8,
    ) -> None:
        super().__init__()
        self.speed_blocks_per_s = float(speed_blocks_per_s)
        self.direction_index = int(direction_index)
        self.direction_count = int(direction_count)

    @property
    def code(self) -> str:  # type: ignore[override]
        return f"S{self.speed_blocks_per_s:g}"

    def _angle(self) -> float:
        return 2.0 * math.pi * (self.direction_index % self.direction_count) / self.direction_count

    def current_speed(self, tick_index: int, tick_interval_ms: float) -> float:
        """Speed at this tick (constant for Sx; overridden by Sinc)."""
        return self.speed_blocks_per_s

    def act(self, player_id, position, spawn, tick_index, tick_interval_ms, rng):
        x, z = self._current(position)
        speed = self.current_speed(tick_index, tick_interval_ms)
        step = speed * tick_interval_ms / 1000.0
        angle = self._angle()
        return [self._move_to(player_id, position, x + step * math.cos(angle), z + step * math.sin(angle))]


class IncreasingSpeedStarBehavior(StarBehavior):
    """Behaviour ``Sinc``: star walk whose speed increases by one block/s per period.

    The paper's terrain-QoS experiment starts at 1 block/s and adds one block/s
    every 200 seconds.
    """

    def __init__(
        self,
        direction_index: int = 0,
        direction_count: int = 8,
        initial_speed_blocks_per_s: float = 1.0,
        speed_increase_interval_s: float = 200.0,
    ) -> None:
        super().__init__(
            speed_blocks_per_s=initial_speed_blocks_per_s,
            direction_index=direction_index,
            direction_count=direction_count,
        )
        self.initial_speed_blocks_per_s = float(initial_speed_blocks_per_s)
        self.speed_increase_interval_s = float(speed_increase_interval_s)

    @property
    def code(self) -> str:  # type: ignore[override]
        return "Sinc"

    def current_speed(self, tick_index: int, tick_interval_ms: float) -> float:
        elapsed_s = tick_index * tick_interval_ms / 1000.0
        increments = int(elapsed_s // self.speed_increase_interval_s)
        return self.initial_speed_blocks_per_s + increments


class RandomBehavior(_ContinuousWalker):
    """Behaviour ``R``: the randomised action mix of Table II.

    Every tick the bot continues its current activity; when the activity ends
    it draws a new one: 40 % move to a random destination at 1-8 blocks/s,
    30 % break or place a nearby block, 20 % stand still, 5 % chat, 5 % set a
    random inventory item.  Destinations are drawn around the bot's current
    position, so over time the population drifts into new terrain.
    """

    code = "R"

    def __init__(self, roam_radius_blocks: float = 64.0) -> None:
        super().__init__()
        self.roam_radius_blocks = float(roam_radius_blocks)
        self._target: tuple[float, float] | None = None
        self._speed: float = 2.0
        self._idle_ticks: int = 0

    def _pick_activity(self, player_id, position, rng) -> list[Message]:
        roll = rng.random()
        if roll < 0.40:
            # Move to a random destination at 1 to 8 blocks per second.
            x, z = self._current(position)
            self._speed = float(rng.uniform(1.0, 8.0))
            self._target = (
                x + float(rng.uniform(-self.roam_radius_blocks, self.roam_radius_blocks)),
                z + float(rng.uniform(-self.roam_radius_blocks, self.roam_radius_blocks)),
            )
            return []
        if roll < 0.70:
            # Break or place a nearby block.
            offset_x, offset_z = int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
            target = BlockPos(position.x + offset_x, position.y - 1, position.z + offset_z)
            kind = MessageKind.BREAK_BLOCK if rng.random() < 0.5 else MessageKind.PLACE_BLOCK
            payload = {"x": target.x, "y": target.y, "z": target.z}
            if kind is MessageKind.PLACE_BLOCK:
                payload["block"] = int(BlockType.STONE)
            return [Message(kind, player_id, payload)]
        if roll < 0.90:
            # Stand still for a moment.
            self._idle_ticks = int(rng.integers(10, 40))
            return []
        if roll < 0.95:
            return [Message(MessageKind.CHAT, player_id, {"text": "hello world"})]
        item = str(rng.choice(["stone", "torch", "lever", "sand", "wood"]))
        return [Message(MessageKind.SET_INVENTORY, player_id, {"item": item})]

    def act(self, player_id, position, spawn, tick_index, tick_interval_ms, rng):
        if self._idle_ticks > 0:
            self._idle_ticks -= 1
            return []
        if self._target is not None:
            x, z = self._current(position)
            target_x, target_z = self._target
            step = self._speed * tick_interval_ms / 1000.0
            dx, dz = target_x - x, target_z - z
            distance = math.hypot(dx, dz)
            if distance <= step:
                self._target = None
                return [self._move_to(player_id, position, target_x, target_z)]
            return [
                self._move_to(
                    player_id, position, x + step * dx / distance, z + step * dz / distance
                )
            ]
        return self._pick_activity(player_id, position, rng)


@dataclass
class BotPlayer:
    """One emulated player."""

    name: str
    behavior: Behavior
    session: Optional[PlayerSession] = None
    spawn: Optional[BlockPos] = None

    @property
    def connected(self) -> bool:
        return self.session is not None and not self.session.disconnected

    def act(self, server: GameHost, tick_index: int, rng: np.random.Generator) -> None:
        """Queue this tick's messages on the bot's session."""
        if not self.connected:
            return
        assert self.session is not None and self.spawn is not None
        messages = self.behavior.act(
            player_id=self.session.player_id,
            position=self.session.avatar.position,
            spawn=self.spawn,
            tick_index=tick_index,
            tick_interval_ms=server.config.tick_interval_ms,
            rng=rng,
        )
        for message in messages:
            self.session.enqueue(message)


class BotSwarm:
    """A population of bots driving one game host (a server or a cluster)."""

    def __init__(
        self,
        behaviors: list[Behavior],
        schedule: JoinSchedule | None = None,
        name_prefix: str = "bot",
    ) -> None:
        self.bots = [
            BotPlayer(name=f"{name_prefix}-{index}", behavior=behavior)
            for index, behavior in enumerate(behaviors)
        ]
        self.schedule = schedule or JoinSchedule.all_at_start()
        self._next_join_index = 0
        self._rng: np.random.Generator | None = None

    @property
    def connected_count(self) -> int:
        return sum(1 for bot in self.bots if bot.connected)

    def _connect_next(self, server: GameHost) -> None:
        if self._next_join_index >= len(self.bots):
            return
        bot = self.bots[self._next_join_index]
        bot.session = server.connect_player(bot.name)
        bot.spawn = bot.session.avatar.position
        self._next_join_index += 1

    def install(self, server: GameHost) -> Callable[[GameHost, int], None]:
        """Connect the initial bots and return the per-tick driver callback."""
        self._rng = server.engine.rng("bots")
        initial = self.schedule.initial
        if initial < 0:
            initial = len(self.bots)
        for _ in range(min(initial, len(self.bots))):
            self._connect_next(server)

        start_ms = server.engine.now_ms

        def driver(driven_server: GameHost, tick_index: int) -> None:
            assert self._rng is not None
            if self.schedule.interval_s is not None:
                elapsed_s = (driven_server.engine.now_ms - start_ms) / 1000.0
                target = initial + int(elapsed_s // self.schedule.interval_s)
                while self._next_join_index < min(target, len(self.bots)):
                    self._connect_next(driven_server)
            for bot in self.bots:
                bot.act(driven_server, tick_index, self._rng)

        return driver
