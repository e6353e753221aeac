"""Export pins: a run's metric exports, byte for byte.

The sha256 of ``prometheus_text(engine.metrics)`` and of the sorted-key JSON
of ``engine.metrics.to_dict()`` are pinned for three runs: a single Servo
server, a cluster whose shard 0 is killed and respawned as ``-r1`` (the
killed shard's ticks stay in the exports), and a two-shard Servo cluster
with interest management on (its consistency histograms sit next to the
tick metrics).  The pins were recorded while every tick metric was its own
recorded histogram or series; they hold now that the tick metrics are views
of the run's tick log.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import RunSpec, run_spec
from repro.obs.export import prometheus_text

SPECS = Path(__file__).resolve().parents[2] / "examples" / "specs"

INTEREST_CLUSTER = {
    "host": {
        "game": "servo-cluster",
        "shards": 2,
        "game_config": {"world_type": "flat", "interest_radius_chunks": 4},
    },
    "workload": {"scenario": "behaviour_a", "params": {"players": 12, "constructs": 4}},
    "seed": 11,
    "duration_s": 4.0,
    "warmup_s": 1.0,
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "spec, prometheus_pin, snapshot_pin",
    [
        pytest.param(
            SPECS / "servo_quick.json",
            "18db2e7680f1c3360b63c23abc7a3a8a1b09ac77298ba608331eaea4c396d7fd",
            "439cb29216f6d8ab000257b037c01470dfae6d0abcae371bad509e743219a6b0",
            id="servo_quick",
        ),
        pytest.param(
            SPECS / "cluster_shard_kill.json",
            "0fd5ad1f947a11426a339d741772cee8c167ed8c4ba5b7e8ca2396dd1f20a8f1",
            "70ded760f6db44506ce687728656bb85e96a3ae134026671b3091f798c01fe68",
            id="cluster_shard_kill",
        ),
        pytest.param(
            INTEREST_CLUSTER,
            "415f3c0f9d6d50f8de5c06b916c03ba6654a03757407cca314fb6212dd8c84a7",
            "e40c630c1b09ac177fef1223130dfd1a9c77fde21fc6756d47016cdeb95c37fa",
            id="cluster_interest_r4",
        ),
    ],
)
def test_metric_exports_match_the_pinned_hashes(spec, prometheus_pin, snapshot_pin):
    if isinstance(spec, Path):
        spec = RunSpec.from_file(spec)
    else:
        spec = RunSpec.from_dict(spec)
    metrics = run_spec(spec).host.engine.metrics
    assert _sha256(prometheus_text(metrics)) == prometheus_pin
    assert _sha256(json.dumps(metrics.to_dict(), sort_keys=True)) == snapshot_pin
