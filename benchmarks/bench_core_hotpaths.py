#!/usr/bin/env python
"""Wall-clock benchmark for the simulator's hot paths.

Unlike the ``bench_fig*`` benchmarks, which reproduce the paper's *virtual
time* results, this benchmark measures how fast the simulator itself runs on
the host: wall-clock ticks per second for

* (a) a construct-heavy single server (a varied fleet of clock grids, wire
  lines, counter farms and large sized constructs — the
  ``ConstructSimulator`` hot path), and
* (b) the quick-scale Servo cluster (the full game-loop + speculation +
  metrics pipeline under player load).

Each scenario runs twice back to back; the run is rejected unless both runs
produce identical determinism hashes (tick-duration sequences plus final
construct state digests), which guards the invariant that wall-clock
optimisations never change virtual-time results.

The results are written to ``BENCH_core_hotpaths.json`` together with the
recorded pre-optimisation baseline, so the speedup trajectory of perf PRs is
kept in the repo.

Usage::

    PYTHONPATH=src python benchmarks/bench_core_hotpaths.py \
        --out BENCH_core_hotpaths.json

Exit status is non-zero if the determinism hashes of the two back-to-back
runs differ (used by the CI ``bench-smoke`` step).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass

from repro.constructs.library import (
    build_clock,
    build_counter_farm,
    build_lamp_grid,
    build_sized_construct,
    build_wire_line,
)
from repro.experiments.harness import build_game_server
from repro.server import GameConfig
from repro.sim import SimulationEngine
from repro.workload.behavior import behavior_by_code
from repro.workload.bots import BotSwarm, JoinSchedule
from repro.world.coords import BlockPos

#: ticks-per-second measured on this repository *before* the hot-path
#: overhaul (compiled circuits, quiescence skipping, streaming metrics), at
#: commit 479c82c, quick scale, on the machine that recorded this file.  The
#: determinism hashes of the optimised code must match the hashes recorded
#: by the pre-optimisation run: same seed, bit-identical virtual results.
PRE_PR_BASELINE = {
    "commit": "479c82c",
    "construct_heavy": {
        "ticks_per_s": 254.46,
        # quick scale, seed 42: the optimised code must reproduce this hash
        "determinism_hash": "fcec4b5eb07e8241581f28b65a436b73639e3940e84b6465bc0d9ce56876fd5c",
    },
    "cluster_quick": {
        "ticks_per_s": 65.07,
        "determinism_hash": "3d86e8733630e515d6069764a882cc92a185f54be7ccef47357a479b9947909a",
    },
}

SEED = 42


@dataclass
class HotPathResult:
    """One measured scenario run."""

    name: str
    ticks: int
    wall_s: float
    determinism_hash: str

    @property
    def ticks_per_s(self) -> float:
        return self.ticks / self.wall_s if self.wall_s > 0 else float("inf")

    def as_dict(self) -> dict:
        return {
            "ticks": self.ticks,
            "wall_s": round(self.wall_s, 4),
            "ticks_per_s": round(self.ticks_per_s, 2),
            "determinism_hash": self.determinism_hash,
        }


def _construct_fleet() -> list:
    """A varied construct fleet: no two structurally identical.

    Mixes always-active circuits (clock-driven lamp grids, counter farms,
    large sized constructs) with circuits that settle to a fixed point
    (power-source wire lines), so both the compiled step loop and quiescence
    skipping are exercised.
    """
    constructs = []
    index = 0

    def next_origin() -> BlockPos:
        nonlocal index
        origin = BlockPos((index % 8) * 64, 64, (index // 8) * 64)
        index += 1
        return origin

    for width in (4, 5, 6, 7, 8):
        for depth in (3, 4, 5):
            constructs.append(build_lamp_grid(width, depth, next_origin()))
    for period in (4, 6, 8, 10, 12, 16):
        constructs.append(build_clock(period=period, origin=next_origin(), lamps=6))
    for length in range(8, 40, 2):
        constructs.append(build_wire_line(length, next_origin(), powered=True))
    for hoppers in (2, 3, 4, 5):
        constructs.append(build_counter_farm(hoppers, next_origin()))
    for size in (120, 252):
        constructs.append(build_sized_construct(size, next_origin()))
    return constructs


def _swarm(players: int) -> BotSwarm:
    behaviors = [behavior_by_code("A", direction_index=i) for i in range(players)]
    return BotSwarm(behaviors, schedule=JoinSchedule.all_at_start())


def _hash_run(tick_durations_ms: list, constructs: list) -> str:
    """Hash the virtual-time results: tick durations + construct states."""
    hasher = hashlib.sha256()
    for duration in tick_durations_ms:
        hasher.update(repr(duration).encode("ascii"))
        hasher.update(b";")
    for construct in sorted(constructs, key=lambda c: c.construct_id):
        hasher.update(str(construct.step).encode("ascii"))
        hasher.update(construct.snapshot().digest().encode("ascii"))
        hasher.update(b"|")
    return hasher.hexdigest()


def run_construct_heavy(
    ticks: int, players: int = 25, interest_radius_chunks: int | None = None
) -> HotPathResult:
    """Scenario (a): one baseline server with a heavy, varied construct fleet.

    With ``interest_radius_chunks`` set the server routes broadcasts through
    the area-of-interest subscription index; ``None`` is the legacy full
    broadcast, whose virtual results must be bit-identical to the recorded
    pre-PR hash (the interest machinery must be invisible when off).
    """
    engine = SimulationEngine(seed=SEED)
    server = build_game_server(
        "opencraft",
        engine,
        GameConfig(world_type="flat", interest_radius_chunks=interest_radius_chunks),
    )
    server.chunks.preload_area(server.config.spawn_position, 96.0)
    for construct in _construct_fleet():
        server.place_construct(construct)
    driver = _swarm(players).install(server)

    begin = time.perf_counter()
    server.run_ticks(ticks, before_tick=driver)
    wall_s = time.perf_counter() - begin

    digest = _hash_run(
        [record.duration_ms for record in server.tick_records],
        server.constructs.constructs(),
    )
    name = (
        "construct_heavy"
        if interest_radius_chunks is None
        else f"interest_r{interest_radius_chunks}"
    )
    return HotPathResult(name=name, ticks=ticks, wall_s=wall_s, determinism_hash=digest)


def run_cluster_quick(rounds: int, players: int = 80, shards: int = 2) -> HotPathResult:
    """Scenario (b): the quick-scale Servo cluster under player load."""
    engine = SimulationEngine(seed=SEED)
    cluster = build_game_server(
        "servo-cluster", engine, GameConfig(world_type="flat"), shards=shards
    )
    cluster.chunks.preload_area(cluster.config.spawn_position, 96.0)
    fleet = _construct_fleet()[:12]
    for construct in fleet:
        cluster.place_construct(construct)
    driver = _swarm(players).install(cluster)

    begin = time.perf_counter()
    cluster.run_ticks(rounds, before_tick=driver)
    wall_s = time.perf_counter() - begin

    constructs = [c for shard in cluster.shards for c in shard.constructs.constructs()]
    digest = _hash_run(
        [record.duration_ms for record in cluster.tick_records], constructs
    )
    return HotPathResult(
        name="cluster_quick", ticks=rounds, wall_s=wall_s, determinism_hash=digest
    )


def _measure_twice(runner, *args) -> tuple[HotPathResult, bool]:
    """Run a scenario back to back; the faster run is reported.

    Returns the result plus whether the two runs' determinism hashes match.
    """
    first = runner(*args)
    second = runner(*args)
    best = min(first, second, key=lambda r: r.wall_s)
    return best, first.determinism_hash == second.determinism_hash


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_core_hotpaths.json", help="output JSON path"
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="FACTOR",
        help="fail unless construct-heavy ticks/s beats the recorded "
        "pre-PR baseline by FACTOR (only meaningful on comparable hardware)",
    )
    parser.add_argument(
        "--assert-identity",
        action="store_true",
        help="fail unless the determinism hashes match the recorded pre-PR "
        "hashes (quick scale only; proves virtual results are bit-identical)",
    )
    args = parser.parse_args(argv)

    scale = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    if scale == "paper":
        construct_ticks, cluster_rounds = 2000, 600
    else:
        construct_ticks, cluster_rounds = 600, 240

    results: dict[str, HotPathResult] = {}
    deterministic = True
    for name, runner, ticks in (
        ("construct_heavy", run_construct_heavy, construct_ticks),
        ("cluster_quick", run_cluster_quick, cluster_rounds),
    ):
        result, stable = _measure_twice(runner, ticks)
        results[name] = result
        deterministic = deterministic and stable
        marker = "ok" if stable else "HASH DRIFT"
        print(
            f"{name}: {result.ticks} ticks in {result.wall_s:.2f}s wall "
            f"-> {result.ticks_per_s:.1f} ticks/s [{marker}]"
        )

    # The interest series: the same construct-heavy server with the
    # area-of-interest broadcast on.  The legacy run above doubles as its
    # baseline; at quick scale its hash is hard-gated against the recorded
    # pre-PR hash — radius None must keep the legacy path bit-identical.
    interest_on, interest_stable = _measure_twice(run_construct_heavy, construct_ticks, 25, 4)
    legacy_result = results["construct_heavy"]
    recorded_legacy_hash = PRE_PR_BASELINE["construct_heavy"]["determinism_hash"]
    legacy_hash_ok = (
        scale != "quick" or legacy_result.determinism_hash == recorded_legacy_hash
    )
    if not legacy_hash_ok:
        marker = "LEGACY HASH DRIFT"
    elif not interest_stable:
        marker = "HASH DRIFT"
    else:
        marker = "ok"
    print(
        f"interest: legacy {legacy_result.ticks_per_s:.1f} t/s vs "
        f"radius=4 {interest_on.ticks_per_s:.1f} t/s [{marker}]"
    )

    report = {
        "benchmark": "core_hotpaths",
        "scale": scale,
        "seed": SEED,
        "baseline_pre_pr": PRE_PR_BASELINE,
        "current": {name: result.as_dict() for name, result in results.items()},
        "deterministic": deterministic,
        "interest": {
            "legacy": legacy_result.as_dict(),
            "radius_4": interest_on.as_dict(),
            "legacy_matches_pre_pr": legacy_hash_ok,
        },
        "speedup_vs_pre_pr": {},
    }
    matches_pre_pr: dict[str, bool] = {}
    for name, result in results.items():
        base = PRE_PR_BASELINE.get(name, {}).get("ticks_per_s")
        if base:
            report["speedup_vs_pre_pr"][name] = round(result.ticks_per_s / base, 2)
        recorded_hash = PRE_PR_BASELINE.get(name, {}).get("determinism_hash")
        if scale == "quick" and recorded_hash:
            matches_pre_pr[name] = result.determinism_hash == recorded_hash
    report["matches_pre_pr_virtual_results"] = matches_pre_pr

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")

    if not deterministic:
        print("FAIL: determinism hashes drifted between back-to-back runs")
        return 1
    if not legacy_hash_ok:
        print("FAIL: legacy broadcast drifted from the recorded pre-PR hash")
        return 1
    if not interest_stable:
        print("FAIL: interest-enabled runs drifted between back-to-back runs")
        return 1
    if args.assert_identity and not all(matches_pre_pr.values()):
        print(f"FAIL: virtual results drifted from pre-PR hashes: {matches_pre_pr}")
        return 1
    if args.assert_speedup is not None:
        speedup = report["speedup_vs_pre_pr"].get("construct_heavy")
        if speedup is None or speedup < args.assert_speedup:
            print(f"FAIL: construct-heavy speedup {speedup} < {args.assert_speedup}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
