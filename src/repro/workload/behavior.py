"""Player behaviours (Section IV-A and Table II).

A behaviour decides, every tick, which client messages a bot sends.  All
behaviours are deterministic given the swarm's one shared random stream, so
experiment repetitions with the same seed produce identical action streams.

Avatars move by fractions of a block per tick (e.g. 3 blocks/s is 0.15 blocks
per tick at 20 Hz), so every bot has a continuous position and sends the
rounded block position to the server.

The four *walkers* — ``A``, ``C``, ``Sx`` and ``Sinc`` — send exactly one
``MOVE`` per tick.  Their classes only hold parameters; :class:`WalkerArrays`
steps a run of them as struct-of-arrays, one batched draw and one array step
per tick.  ``R`` draws from four distributions depending on what it drew
before, so it keeps a per-bot :meth:`Behavior.act`.

**Draw order is bot order.**  ``Generator.uniform(lo, hi, size=k)`` returns
the values ``k`` scalar calls would and leaves the stream where they would
(pinned by ``tests/workload/test_numpy_contract.py``), so a batched draw over
the drawing bots of a run, in bot order, is the draw the scalar bots made.
The scalar bots are kept as the executable spec in
``tests/workload/reference_behaviors.py``; every operation below is the one
they perform, in their order, so positions agree to the last bit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.net.message import Message, MessageKind
from repro.world.block import BlockType
from repro.world.coords import BlockPos


class Behavior:
    """Interface: produce the messages a bot sends this tick.

    The swarm calls ``act`` once per tick for every connected bot whose
    behaviour is not a :class:`WalkerBehavior`.
    """

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


class WalkerBehavior(Behavior):
    """The parameters of one walker; :class:`WalkerArrays` does the stepping.

    Parameters are read when the bot connects, so set them before
    ``BotSwarm.install`` (as ``Scenario.run`` does for ``C``'s target).
    """

    speed_blocks_per_s: float


class BoundedAreaBehavior(WalkerBehavior):
    """Behaviour ``A``: only move actions, inside a bounded area around spawn.

    Used by the simulated-construct experiments because it generates no new
    terrain: the bot performs a random walk clipped to ``radius_blocks``.
    """

    code = "A"
    radius_blocks = 12.0
    speed_blocks_per_s = 3.0


class ConvergeBehavior(WalkerBehavior):
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
    speed_blocks_per_s = 3.0
    crowd_radius_blocks = 8.0
    target: BlockPos | None = None


class StarBehavior(WalkerBehavior):
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
        self.speed_blocks_per_s = float(speed_blocks_per_s)
        self.direction_index = int(direction_index)
        self.direction_count = int(direction_count)

    @property
    def code(self) -> str:  # type: ignore[override]
        return f"S{self.speed_blocks_per_s:g}"

    def _angle(self) -> float:
        return 2.0 * math.pi * (self.direction_index % self.direction_count) / self.direction_count


def _increasing_speed(initial, interval_s, tick_index: int, tick_interval_ms: float):
    """``Sinc``'s speed schedule, for one bot (floats) or a run of them (arrays)."""
    elapsed_s = tick_index * tick_interval_ms / 1000.0
    return initial + elapsed_s // interval_s


class IncreasingSpeedStarBehavior(StarBehavior):
    """Behaviour ``Sinc``: star walk whose speed increases by one block/s per period.

    The paper's terrain-QoS experiment starts at 1 block/s and adds one block/s
    every 200 seconds.
    """

    initial_speed_blocks_per_s = 1.0

    def __init__(
        self,
        direction_index: int = 0,
        direction_count: int = 8,
        speed_increase_interval_s: float = 200.0,
    ) -> None:
        super().__init__(
            speed_blocks_per_s=self.initial_speed_blocks_per_s,
            direction_index=direction_index,
            direction_count=direction_count,
        )
        self.speed_increase_interval_s = float(speed_increase_interval_s)

    @property
    def code(self) -> str:  # type: ignore[override]
        return "Sinc"


class WalkerArrays:
    """A run of walkers in bot order, stepped as struct-of-arrays.

    Row ``i`` is the run's ``i``-th bot.  :meth:`bind` fills a row when its
    bot connects, :meth:`set_active` names the connected rows, and
    :meth:`step` moves exactly those: the active ``A`` rows and the active
    ``C`` rows that have arrived share one ``rng.uniform`` call, in row
    order, and nobody else draws.
    """

    def __init__(self, behaviors: Sequence[WalkerBehavior]) -> None:
        self.behaviors = list(behaviors)
        count = len(self.behaviors)
        #: continuous position
        self.x = np.zeros(count)
        self.z = np.zeros(count)
        self.speed = np.zeros(count)
        #: A and C: centre and radius of the area the random walk is clamped to
        self.centre_x = np.zeros(count)
        self.centre_z = np.zeros(count)
        self.radius = np.zeros(count)
        #: Sx and Sinc: the fixed heading
        self.cos = np.zeros(count)
        self.sin = np.zeros(count)
        #: Sinc: the speed schedule
        self.initial_speed = np.zeros(count)
        self.speed_increase_interval_s = np.zeros(count)
        self.set_active([])

    def bind(self, row: int, spawn: BlockPos) -> None:
        """Put row ``row`` at ``spawn`` and read its behaviour's parameters."""
        behavior = self.behaviors[row]
        self.x[row], self.z[row] = spawn.x, spawn.z
        self.speed[row] = behavior.speed_blocks_per_s
        if isinstance(behavior, StarBehavior):
            angle = behavior._angle()
            self.cos[row], self.sin[row] = math.cos(angle), math.sin(angle)
            if isinstance(behavior, IncreasingSpeedStarBehavior):
                self.initial_speed[row] = behavior.initial_speed_blocks_per_s
                self.speed_increase_interval_s[row] = behavior.speed_increase_interval_s
        elif isinstance(behavior, ConvergeBehavior):
            centre = behavior.target if behavior.target is not None else spawn
            self.centre_x[row], self.centre_z[row] = centre.x, centre.z
            self.radius[row] = behavior.crowd_radius_blocks
        else:
            self.centre_x[row], self.centre_z[row] = spawn.x, spawn.z
            self.radius[row] = behavior.radius_blocks

    def set_active(self, rows: Sequence[int]) -> None:
        """Step only ``rows`` (ascending, each one bound) from now on."""

        def of_kind(kind: type) -> np.ndarray:
            return np.array(
                [row for row in rows if isinstance(self.behaviors[row], kind)], dtype=np.intp
            )

        self._rows = np.array(rows, dtype=np.intp)
        self._bounded = of_kind(BoundedAreaBehavior)
        self._converge = of_kind(ConvergeBehavior)
        self._star = of_kind(StarBehavior)
        self._sinc = of_kind(IncreasingSpeedStarBehavior)

    def step(
        self, tick_index: int, tick_interval_ms: float, rng: np.random.Generator
    ) -> tuple[list[int], list[int]]:
        """Move every active row one tick; their block ``x`` and ``z``, in row order."""
        x, z, speed = self.x, self.z, self.speed
        sinc = self._sinc
        if sinc.size:
            speed[sinc] = _increasing_speed(
                self.initial_speed[sinc], self.speed_increase_interval_s[sinc],
                tick_index, tick_interval_ms,
            )

        milling = self._bounded
        rows = self._converge
        if rows.size:
            dx = self.centre_x[rows] - x[rows]
            dz = self.centre_z[rows] - z[rows]
            # math.hypot is CPython's own correctly-rounded routine; np.hypot is libm's.
            distance = np.array(list(map(math.hypot, dx.tolist(), dz.tolist())))
            approaching = distance > self.radius[rows]
            # Arrived: mill around inside the crowd radius, as A does around spawn.
            milling = np.sort(np.concatenate((milling, rows[~approaching])))
            # Still approaching: head straight for the convergence point.
            rows, dx, dz, distance = (
                rows[approaching], dx[approaching], dz[approaching], distance[approaching]
            )
            stride = speed[rows] * tick_interval_ms / 1000.0
            reached = distance <= stride
            x[rows] = np.where(reached, self.centre_x[rows], x[rows] + stride * dx / distance)
            z[rows] = np.where(reached, self.centre_z[rows], z[rows] + stride * dz / distance)

        rows = milling
        if rows.size:
            angles = rng.uniform(0.0, 2.0 * math.pi, size=rows.size).tolist()
            # math.cos/sin, not np.cos/sin: numpy picks its SIMD trig by CPU.
            cos = np.array(list(map(math.cos, angles)))
            sin = np.array(list(map(math.sin, angles)))
            stride = speed[rows] * tick_interval_ms / 1000.0
            radius = self.radius[rows]
            centre = self.centre_x[rows]
            x[rows] = np.minimum(
                np.maximum(x[rows] + stride * cos, centre - radius), centre + radius
            )
            centre = self.centre_z[rows]
            z[rows] = np.minimum(
                np.maximum(z[rows] + stride * sin, centre - radius), centre + radius
            )

        rows = self._star
        if rows.size:
            stride = speed[rows] * tick_interval_ms / 1000.0
            x[rows] += stride * self.cos[rows]
            z[rows] += stride * self.sin[rows]

        rows = self._rows
        return (
            np.rint(x[rows]).astype(np.int64).tolist(),
            np.rint(z[rows]).astype(np.int64).tolist(),
        )


class RandomBehavior(Behavior):
    """Behaviour ``R``: the randomised action mix of Table II.

    Every tick the bot continues its current activity; when the activity ends
    it draws a new one: 40 % move to a random destination at 1-8 blocks/s,
    30 % break or place a nearby block, 20 % stand still, 5 % chat, 5 % set a
    random inventory item.  Destinations are drawn around the bot's current
    position, so over time the population drifts into new terrain.
    """

    code = "R"
    roam_radius_blocks = 64.0

    def __init__(self) -> None:
        #: continuous position, taken from the avatar at the first move activity
        self._xz: tuple[float, float] | None = None
        self._target: tuple[float, float] | None = None
        self._speed: float = 2.0
        self._idle_ticks: int = 0

    def _pick_activity(self, player_id, position, rng) -> list[Message]:
        roll = rng.random()
        if roll < 0.40:
            # Move to a random destination at 1 to 8 blocks per second.
            if self._xz is None:
                self._xz = (float(position.x), float(position.z))
            x, z = self._xz
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
            x, z = self._xz  # set when the target was picked
            target_x, target_z = self._target
            step = self._speed * tick_interval_ms / 1000.0
            dx, dz = target_x - x, target_z - z
            distance = math.hypot(dx, dz)
            if distance <= step:
                self._target = None
                x, z = target_x, target_z
            else:
                x, z = x + step * dx / distance, z + step * dz / distance
            self._xz = (x, z)
            payload = {"x": int(round(x)), "y": position.y, "z": int(round(z))}
            return [Message(MessageKind.MOVE, player_id, payload)]
        return self._pick_activity(player_id, position, rng)


def behavior_by_code(code: str, direction_index: int = 0) -> Behavior:
    """Create a behaviour from its Table I code ("A", "C", "S3", "S8", "Sinc", "R")."""
    normalized = code.strip()
    if normalized == "A":
        return BoundedAreaBehavior()
    if normalized == "C":
        return ConvergeBehavior()
    if normalized == "R":
        return RandomBehavior()
    if normalized.lower() == "sinc":
        return IncreasingSpeedStarBehavior(direction_index=direction_index)
    if normalized.upper().startswith("S"):
        try:
            speed = float(normalized[1:])
        except ValueError as error:
            raise ValueError(f"unknown behaviour code {code!r}") from error
        # float() also reads "nan", "inf" and "1e400"; none of them is a walking speed.
        if math.isfinite(speed) and speed >= 0.0:
            return StarBehavior(speed_blocks_per_s=speed, direction_index=direction_index)
    raise ValueError(f"unknown behaviour code {code!r}")
