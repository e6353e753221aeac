"""Whole-run identity: the oldest pinned hashes, and same-seed rerun identity.

* The pinned determinism hashes must still reproduce: no host-side
  speed-up, fault hook, telemetry hook or interest plumbing may change a
  virtual-time result.  A pin moves only with a fix that explains its first
  divergent tick (README, "Moving a pin").  Each run executes once; rerun
  identity is the second test's job.
* The same spec with the same seed, run twice, must agree on
  :func:`fingerprint`.  Subsystem tests assert rerun identity of their own
  state; this is the one whole-run check, and each case also asserts what
  its scenario exists to show.
* The same spec with the same seed must agree on :func:`fingerprint` under
  every ``PYTHONHASHSEED``: the hash seed reorders every set and every
  string-keyed dict, and ``tests/perturb`` shifts the clocks and seeds
  ambient randomness by it; none of those may reach a result.  Run as a
  script, this module prints the digest the test compares.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import build_host, run_spec
from repro.constructs.library import (
    build_clock,
    build_counter_farm,
    build_lamp_grid,
    build_sized_construct,
    build_wire_line,
)
from repro.server import GameConfig
from repro.sim import SimulationEngine
from repro.workload.behavior import behavior_by_code
from repro.workload.bots import BotSwarm, JoinSchedule
from repro.world.coords import BlockPos

SEED = 42

#: the directory whose sitecustomize perturbs hash-seeded subprocesses
PERTURB = Path(__file__).resolve().parent / "perturb"


def construct_fleet() -> list:
    """43 structurally distinct circuits, always-active and settling mixed."""
    origins = (BlockPos((i % 8) * 64, 64, (i // 8) * 64) for i in range(43))
    fleet = [
        build_lamp_grid(width, depth, next(origins))
        for width in (4, 5, 6, 7, 8)
        for depth in (3, 4, 5)
    ]
    fleet += [
        build_clock(period=period, origin=next(origins), lamps=6)
        for period in (4, 6, 8, 10, 12, 16)
    ]
    fleet += [
        build_wire_line(length, next(origins), powered=True) for length in range(8, 40, 2)
    ]
    fleet += [build_counter_farm(hoppers, next(origins)) for hoppers in (2, 3, 4, 5)]
    fleet += [build_sized_construct(size, next(origins)) for size in (120, 252)]
    return fleet


# Re-recorded when a chunk waiting for integration stopped being requested
# again.  The old runs asked twice for every chunk that arrived between two
# ticks and charged the second copy as an integration (and, on Opencraft, as
# local-generation backlog): the Opencraft runs first diverge at tick 1 on
# chunk (-8, -2), cluster_quick at shard 1's tick 27 on chunk (31, 3).  The
# runs date from commit 479c82c, before any optimisation, and a3e50a2 for
# radius 4, when interest management landed (it must differ: the interest
# cost model is a different one).
@pytest.mark.parametrize(
    "game, shards, interest_radius, circuits, players, ticks, pinned",
    [
        pytest.param(
            "opencraft", None, None, 43, 25, 600,
            "3c145bb381bda28c47038b6bb3f1a5af767a0bcabda2f23cd9dea0168020ff58",
            id="construct_heavy",
        ),
        pytest.param(
            "servo-cluster", 2, None, 12, 80, 240,
            "b96b15640748aa38cd1deb06accd48608113d53e5cdf2c96a413e949d69cd7d5",
            id="cluster_quick",
        ),
        pytest.param(
            "opencraft", None, 4, 43, 25, 600,
            "cad4f3a1a9107f0c7c04ac861ca5bd8224be7186ddbb546baa5ffc94e92fe8b3",
            id="construct_heavy_interest_r4",
        ),
    ],
)
def test_virtual_results_still_match_the_pinned_hashes(
    game, shards, interest_radius, circuits, players, ticks, pinned
):
    engine = SimulationEngine(seed=SEED)
    config = GameConfig(world_type="flat", interest_radius_chunks=interest_radius)
    host = build_host(game, engine, config, shards=shards)
    host.chunks.preload_area(host.config.spawn_position, 96.0)
    for construct in construct_fleet()[:circuits]:
        host.place_construct(construct)
    swarm = BotSwarm(
        [behavior_by_code("A", direction_index=i) for i in range(players)],
        schedule=JoinSchedule.all_at_start(),
    )
    host.run_ticks(ticks, before_tick=swarm.install(host))

    # Tick durations, then every construct's step and state digest by id.
    hasher = hashlib.sha256()
    for record in host.tick_records:
        hasher.update(repr(record.duration_ms).encode("ascii") + b";")
    servers = getattr(host, "shards", [host])
    constructs = [c for server in servers for c in server.constructs.constructs()]
    for construct in sorted(constructs, key=lambda c: c.construct_id):
        hasher.update(str(construct.step).encode("ascii"))
        hasher.update(construct.snapshot().digest().encode("ascii") + b"|")
    assert hasher.hexdigest() == pinned


def fingerprint(result) -> tuple:
    """Everything two same-seed runs of one spec must agree on."""
    host = result.host
    injector = host.fault_injector
    return (
        injector.timeline.digest() if injector is not None else None,
        tuple(getattr(host, "recovery_records", ())),
        tuple(sorted(result.counters.items())),
        result.end_virtual_ms,
        tuple(result.scenario.tick_durations_ms),
    )


def check_shard_kill(result) -> None:
    (record,) = result.host.recovery_records
    assert record.sessions_lost == 0
    assert record.sessions_recovered > 0
    assert record.downtime_rounds > 0  # a finite, non-zero MTTR


def check_brownout(result) -> None:
    counters = result.counters
    injected = sum(
        counters.get(name, 0.0)
        for name in ("faas_failures", "faas_throttles", "faas_forced_timeouts")
    )
    assert injected > 0, "no FaaS fault fired"
    assert counters.get("faas_retries", 0.0) > 0, "faults fired but nothing retried"


SHARD_KILL_SPEC = {
    "host": {"game": "servo-cluster", "shards": 2},
    "workload": {
        "scenario": "shard_kill_at_peak",
        "params": {
            "players": 16,
            "constructs": 8,
            "duration_s": 16.0,
            "kill_at_s": 8.0,
            "respawn_after_s": 2.0,
            "shard": 0,
        },
    },
    "seed": SEED,
}

BROWNOUT_SPEC = {
    "host": {"game": "servo"},
    "workload": {
        "scenario": "offload_brownout",
        "params": {
            "players": 10,
            "constructs": 12,
            "duration_s": 10.0,
            "failure_rate": 0.25,
            "throttle_rate": 0.1,
            "timeout_rate": 0.05,
        },
    },
    "seed": SEED,
}


@pytest.mark.parametrize(
    "spec, check",
    [
        pytest.param(SHARD_KILL_SPEC, check_shard_kill, id="shard_kill_at_peak"),
        pytest.param(BROWNOUT_SPEC, check_brownout, id="offload_brownout"),
    ],
)
def test_same_spec_same_seed_reruns_share_one_fingerprint(spec, check):
    first, second = run_spec(spec), run_spec(spec)
    check(first)
    assert fingerprint(first) == fingerprint(second)


def degradation_spec(interest_radius) -> dict:
    """A flat Opencraft server over its budget on construct ticks, shedding."""
    return {
        "host": {
            "game": "opencraft",
            "game_config": {"world_type": "flat", "interest_radius_chunks": interest_radius},
        },
        "workload": {
            "scenario": "behaviour_a",
            "params": {"players": 30, "constructs": 60, "duration_s": 3.0},
        },
        "warmup_s": 1.0,
        "faults": {"degradation": {"budget_ms": 25.0, "shed_fraction": 0.5}},
        "seed": SEED,
    }


# Recorded at dd559db, before the two broadcast modes became one policy
# object each: full fan-out sheds players, interest management sheds due
# far-tier flushes, and the fault timeline (inside the fingerprint) names
# which.
@pytest.mark.parametrize(
    "interest_radius, unit, pinned",
    [
        pytest.param(
            None, "players",
            "a6e2d86c779fff2da52ee63a9ae53edc526c764bd20bb19cf8facaee35867c51",
            id="full_fanout",
        ),
        pytest.param(
            4, "flushes",
            "6d738c3f8080c0c67b49fe9d5c0f773e100419febaa48f24d6b81d67d959290e",
            id="interest_r4",
        ),
    ],
)
def test_a_shedding_run_still_matches_its_pinned_fingerprint(interest_radius, unit, pinned):
    result = run_spec(degradation_spec(interest_radius))
    assert result.counters["broadcast_updates_shed"] > 0
    details = {
        event.detail.split()[-1].split("=")[0]
        for event in result.host.fault_injector.timeline.events
        if event.kind == "degradation.shed"
    }
    assert details == {unit}
    digest = hashlib.sha256(repr(fingerprint(result)).encode("utf-8")).hexdigest()
    assert digest == pinned


# Interest on, two shards, a lossy wire: migrations, cross-shard relays,
# sequence-stamped messages and subscription re-centring all run.
HASH_SEED_SPEC = {
    "host": {
        "game": "servo-cluster",
        "shards": 2,
        "game_config": {"world_type": "flat", "interest_radius_chunks": 4},
    },
    "workload": {"scenario": "flaky_network", "params": {"players": 24, "duration_s": 6.0}},
    "seed": SEED,
}


def hash_seed_digest() -> str:
    return hashlib.sha256(repr(fingerprint(run_spec(HASH_SEED_SPEC))).encode("utf-8")).hexdigest()


def perturbed_env(hash_seed: str) -> dict[str, str]:
    """A subprocess environment with ``tests/perturb`` ahead of ``src``.

    Its ``sitecustomize`` shifts the clocks and seeds ambient randomness by
    any nonzero hash seed, so a leak of either shows as two fingerprints.
    """
    return {
        "PYTHONPATH": os.pathsep.join((str(PERTURB), str(PERTURB.parent.parent / "src"))),
        "PYTHONHASHSEED": hash_seed,
    }


def test_every_hash_seed_gives_one_fingerprint():
    digests = {"in-process": hash_seed_digest()}
    for hash_seed in ("0", "1", "2"):
        digests[hash_seed] = subprocess.run(
            [sys.executable, __file__],
            capture_output=True,
            text=True,
            check=True,
            env=perturbed_env(hash_seed),
        ).stdout.strip()
    assert len(set(digests.values())) == 1, digests


def test_the_perturbation_is_live():
    code = "import random, sitecustomize, time; print(sitecustomize.__file__, random.random(), time.time())"
    runs = [
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=perturbed_env(hash_seed),
        ).stdout.split()
        for hash_seed in ("1", "1", "2")
    ]
    # A stray sitecustomize earlier on the path would shadow this one.
    assert {Path(path) for path, _, _ in runs} == {PERTURB / "sitecustomize.py"}
    (_, first, clock_1), (_, again, _), (_, other, clock_2) = runs
    assert first == again != other
    assert float(clock_2) - float(clock_1) > 500.0


def test_the_perturbation_moves_datetime_now():
    code = (
        "import datetime, time; utc = datetime.datetime.utcfromtimestamp(0).timestamp(); "
        "print(time.time(), datetime.datetime.now().timestamp(), "
        "datetime.datetime.utcnow().timestamp() - utc)"
    )
    runs = {
        hash_seed: [float(value) for value in subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=perturbed_env(hash_seed),
        ).stdout.split()]
        for hash_seed in ("0", "1", "2")
    }
    # Each run's datetimes agree with its own (shifted or not) time.time ...
    for clock, now, utcnow in runs.values():
        assert abs(now - clock) < 60.0 and abs(utcnow - clock) < 60.0
    # ... and move with the hash seed.
    assert runs["2"][1] - runs["1"][1] > 500.0
    assert runs["2"][2] - runs["1"][2] > 500.0


if __name__ == "__main__":
    print(hash_seed_digest())
