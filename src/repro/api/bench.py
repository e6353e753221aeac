"""`repro bench`: quick wall-clock benchmark with a determinism check.

Runs a small, fixed set of representative specs (a construct-heavy single
server and a 2-shard Servo cluster), each twice back to back, and reports
ticks per wall-clock second.  The two runs of each spec must produce
identical deterministic summaries — wall-clock performance work must never
change virtual-time results — so the bench doubles as a fast regression
gate.  The heavyweight, figure-producing benchmarks remain under
``benchmarks/``; this is the always-available smoke version.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.api.run import run_spec
from repro.api.spec import RunSpec

#: the representative workloads `repro bench` measures
BENCH_SPECS: dict[str, dict[str, Any]] = {
    "construct-heavy": {
        "host": {"game": "opencraft", "game_config": {"world_type": "flat"}},
        "workload": {
            "scenario": "behaviour_a",
            "params": {"players": 20, "constructs": 40},
        },
        "seed": 42,
        "warmup_s": 1.0,
    },
    "servo-cluster-2shard": {
        "host": {
            "game": "servo-cluster",
            "shards": 2,
            "game_config": {"world_type": "flat"},
        },
        "workload": {"scenario": "behaviour_a", "params": {"players": 30}},
        "seed": 42,
        "warmup_s": 1.0,
    },
}


def _summary_digest(summary: dict) -> str:
    payload = json.dumps(summary, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def run_bench(duration_s: float = 5.0, repeats: int = 2) -> dict[str, Any]:
    """Run every bench spec ``repeats`` times; report rates and determinism."""
    if repeats < 2:
        raise ValueError("repeats must be at least 2 to check determinism")
    report: dict[str, Any] = {"duration_s": duration_s, "scenarios": {}}
    for name, base in BENCH_SPECS.items():
        spec = RunSpec.from_dict({**base, "duration_s": duration_s})
        results = [run_spec(spec) for _ in range(repeats)]
        digests = {_summary_digest(result.summary()) for result in results}
        ticks = [len(result.host.tick_records) for result in results]
        best_wall = min(result.wall_seconds for result in results)
        report["scenarios"][name] = {
            "ticks_per_s": (min(ticks) / best_wall) if best_wall > 0 else float("inf"),
            "wall_s_best": best_wall,
            "ticks": min(ticks),
            "deterministic": len(digests) == 1,
            "summary_digest": sorted(digests)[0],
        }
    report["deterministic"] = all(
        row["deterministic"] for row in report["scenarios"].values()
    )
    return report


def format_bench(report: dict[str, Any]) -> str:
    from repro.experiments.harness import format_table

    rows = [
        [
            name,
            f"{row['ticks_per_s']:.1f}",
            f"{row['wall_s_best']:.2f}",
            str(row["ticks"]),
            "ok" if row["deterministic"] else "DRIFT",
            row["summary_digest"][:12],
        ]
        for name, row in sorted(report["scenarios"].items())
    ]
    table = format_table(
        ["scenario", "ticks/s", "best wall (s)", "ticks", "determinism", "digest"], rows
    )
    verdict = (
        "all scenarios bit-identical across repeats"
        if report["deterministic"]
        else "DETERMINISM DRIFT DETECTED — virtual results changed between repeats"
    )
    return f"{table}\n{verdict}"
