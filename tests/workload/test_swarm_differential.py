"""The array-stepped swarm against the scalar bots it replaced.

Two recording hosts with the same seed get the same generated population —
walkers and ``R`` bots in any order, parameters varied, spread-out spawns —
one through ``repro.workload.BotSwarm`` and one through the swarm in
``reference_behaviors`` (the code as it was when every bot had a scalar
``act``).  Bots join all at once or staggered and some are disconnected
mid-run.  After every tick both must have sent the same messages in the same
order, left the shared ``"bots"`` generator in the same state and hold the
same continuous position for every walker — messages carry rounded blocks,
which would hide a last-bit difference for many ticks.

Mutants this fails for (each tried by hand when it was written, and each has
an ``@example`` below so that finding it is not left to chance): one draw per
behaviour class instead of per run in bot order; drawing for a disconnected
bot; ``np.hypot`` for ``C``'s distance; ``stride * (dx / distance)`` for
``(stride * dx) / distance``.
"""

import pytest
import reference_behaviors as reference
from hypothesis import example, given, settings
from hypothesis import strategies as st
from stub_host import StubHost

from repro.cluster import build_servo_cluster
from repro.server import GameConfig, make_opencraft
from repro.sim import SimulationEngine
from repro.workload import behavior as production
from repro.workload.bots import BotPlayer, BotSwarm, JoinSchedule
from repro.world.coords import BlockPos

from hypothesis_profiles import examples

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

radii = st.floats(0.0, 16.0)
speeds = st.floats(0.0, 40.0)
direction = (st.integers(0, 40), st.integers(1, 12))  # index, count
positions = st.builds(BlockPos, st.integers(-40, 40), st.integers(60, 70), st.integers(-40, 40))

bots = st.one_of(
    st.tuples(st.just("BoundedAreaBehavior"), radii, speeds),
    st.tuples(st.just("ConvergeBehavior"), speeds, radii, st.none() | positions),
    st.tuples(st.just("StarBehavior"), st.sampled_from([3.0, 8.0]) | speeds, *direction),
    st.tuples(
        st.just("IncreasingSpeedStarBehavior"), *direction,
        st.floats(0.0, 8.0), st.floats(0.05, 2.0),
    ),
    st.tuples(st.just("RandomBehavior"), st.floats(1.0, 64.0)),
)
schedules = st.one_of(
    st.just(JoinSchedule.all_at_start()),
    st.builds(JoinSchedule.staggered, st.floats(0.05, 0.5), st.integers(0, 4)),
)


#: per generated argument, the attribute a production behaviour fixes it in
#: (None: a constructor argument); the reference takes every one as an argument
FIXED_KNOBS = {
    "BoundedAreaBehavior": ("radius_blocks", "speed_blocks_per_s"),
    "ConvergeBehavior": ("speed_blocks_per_s", "crowd_radius_blocks", "target"),
    "IncreasingSpeedStarBehavior": (None, None, "initial_speed_blocks_per_s", None),
    "RandomBehavior": ("roam_radius_blocks",),
}


def populate(module, population) -> list:
    behaviors = []
    for name, *arguments in population:
        knobs = FIXED_KNOBS.get(name) if module is production else None
        if knobs is None:
            behaviors.append(getattr(module, name)(*arguments))
            continue
        behavior = getattr(module, name)(*[a for k, a in zip(knobs, arguments) if k is None])
        for knob, value in zip(knobs, arguments):
            if knob is not None:
                setattr(behavior, knob, value)
        behaviors.append(behavior)
    return behaviors


def sent(messages) -> list[tuple]:
    return [(message.kind, message.player_id, message.payload) for message in messages]


def reference_positions(swarm) -> dict[str, tuple[float, float]]:
    """The continuous (x, z) of every scalar walker that has acted, by bot name."""
    return {
        bot.name: (bot.behavior._float_x, bot.behavior._float_z)
        for bot in swarm.bots
        if not isinstance(bot.behavior, reference.RandomBehavior)
        and bot.behavior._float_x is not None
    }


def array_positions(swarm) -> dict[str, tuple[float, float]]:
    """The continuous (x, z) of every array-stepped walker, by bot name."""
    return {
        bot.name: (x, z)
        for run in swarm._steps if not isinstance(run, BotPlayer)
        for bot, x, z in zip(run.bots, run.walkers.x.tolist(), run.walkers.z.tolist())
    }


ALL_AT_START = JoinSchedule.all_at_start()
ORIGIN = BlockPos(0, 65, 0)
A = ("BoundedAreaBehavior", 12.0, 3.0)


@settings(max_examples=examples(250))
# An arrived C between two As: drawn for in bot order, not class by class.
@example([A, ("ConvergeBehavior", 3.0, 8.0, None), A], ALL_AT_START, [ORIGIN], 20.0, 1, 3, [])
# The middle bot is disconnected before tick 1 and must stop drawing.
@example([A, A, A], ALL_AT_START, [ORIGIN], 20.0, 1, 3, [(1, 1)])
# A long approach at an awkward stride: (stride * dx) / distance, in that order.
@example(
    [("ConvergeBehavior", 3.7, 1.0, BlockPos(31, 65, -23))], ALL_AT_START, [ORIGIN], 30.0, 1, 40, []
)
# Distances where glibc's hypot is an ulp off CPython's, with the crowd radius
# on the smaller value: one of the two says "arrived" (and draws), one does not.
@example(
    [("ConvergeBehavior", 3.0, 31.906112267087632, BlockPos(17, 65, 27))],
    ALL_AT_START, [ORIGIN], 20.0, 1, 2, [],
)
@example(
    [("ConvergeBehavior", 3.0, 54.708317466359716, BlockPos(28, 65, 47))],
    ALL_AT_START, [ORIGIN], 20.0, 1, 2, [],
)
@given(
    population=st.lists(bots, min_size=1, max_size=12),
    schedule=schedules,
    spawns=st.lists(positions, min_size=1, max_size=4),
    rate_hz=st.sampled_from([20.0, 30.0]),
    seed=st.integers(0, 2**16),
    ticks=st.integers(1, 40),
    disconnects=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 11)), max_size=4),
)
def test_the_swarm_sends_what_the_scalar_bots_sent_and_draws_what_they_drew(
    population, schedule, spawns, rate_hz, seed, ticks, disconnects
):
    sides = []
    for module, swarm_type in ((production, BotSwarm), (reference, reference.BotSwarm)):
        host = StubHost(seed, spawns, 1000.0 / rate_hz)
        swarm = swarm_type(populate(module, population), schedule)
        sides.append((host, swarm, swarm.install(host)))

    for tick in range(ticks):
        sent_this_tick = []
        for host, swarm, driver in sides:
            for at_tick, index in disconnects:
                if at_tick == tick and index < len(host.sessions):
                    host.sessions[index].disconnected = True
            driver(host, tick)
            sent_this_tick.append(sent(host.end_tick()))
        assert sent_this_tick[0] == sent_this_tick[1], tick
        states = [host.engine.rng("bots").bit_generator.state for host, _, _ in sides]
        assert states[0] == states[1], tick
        expected, actual = reference_positions(sides[1][1]), array_positions(sides[0][1])
        assert {name: actual[name] for name in expected} == expected, tick
    connected = [sum(bot.connected for bot in side[1].bots) for side in sides]
    assert connected[0] == connected[1]


# -- a disconnected bot, on real hosts ---------------------------------------------------


def make_server():
    config = GameConfig(world_type="flat")
    server = make_opencraft(SimulationEngine(seed=5), config)
    server.chunks.preload_area(config.spawn_position, 96.0)
    return server


def make_cluster():
    config = GameConfig(world_type="flat")
    cluster = build_servo_cluster(SimulationEngine(seed=5), config, shards=2)
    cluster.chunks.preload_area(config.spawn_position, 96.0)
    return cluster


@pytest.mark.parametrize("make_host", [make_server, make_cluster])
def test_a_bot_disconnected_mid_run_goes_quiet_and_the_rest_carry_on_unchanged(make_host):
    """Bot 2 of six ``A`` bots is disconnected by the host after tick 10."""
    gone, positions_by_side = 2, []
    for module, swarm_type in ((production, BotSwarm), (reference, reference.BotSwarm)):
        host = make_host()
        swarm = swarm_type([module.BoundedAreaBehavior() for _ in range(6)])
        driver = swarm.install(host)
        host.run_ticks(10, before_tick=driver)
        session = swarm.bots[gone].session
        host.disconnect_player(session.player_id)
        assert session.disconnected and sum(bot.connected for bot in swarm.bots) == 5
        parked_at = session.avatar.position

        positions = []
        for _ in range(30):
            host.run_ticks(1, before_tick=driver)
            positions.append([bot.session.avatar.position for bot in swarm.bots])
        assert host.player_count == 5
        assert all(row[gone] == parked_at for row in positions)
        assert len({tuple(row) for row in positions}) > 1  # the others kept walking
        positions_by_side.append(positions)
    assert positions_by_side[0] == positions_by_side[1]
