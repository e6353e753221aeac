"""Smoke test of the benchmark harness itself (collected by the tier-1 run).

Runs all five workloads at a fiftieth of the benchmark's length through the
real command — timed repeats under two hash seeds, traced, census and probes
passes — and checks what the harness promises: every name in
``BENCHMARK.json`` is emitted, simulated results agree across repeats and
passes, spans nest into one tree, and a failed check shows up as failed ticks.
No assertion depends on how fast the machine is.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import PASSES, compare, run, worker  # noqa: E402
from bench.workloads import WORKLOADS, set_up  # noqa: E402

DEFINITIONS = run.load_definitions()
WORKLOAD_NAMES = [workload["name"] for workload in DEFINITIONS["workloads"]]
SMOKE_SECONDS = "0.3"


@pytest.fixture(scope="module")
def reports(tmp_path_factory) -> dict[str, dict]:
    """One ``bench/run.py`` per workload, side by side; probes ride with the first."""
    out_dir = tmp_path_factory.mktemp("bench")
    processes = {}
    for index, name in enumerate(WORKLOAD_NAMES):
        passes = [p for p in PASSES if p != "probes" or index == 0]
        command = [
            sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
            "--seconds", SMOKE_SECONDS, "--repeats", "2", "--out", str(out_dir / f"{name}.json"),
        ]
        for pass_name in passes:
            command += ["--pass", pass_name]
        processes[name] = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
    loaded = {}
    for name, process in processes.items():
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stderr
        with (out_dir / f"{name}.json").open(encoding="utf-8") as handle:
            loaded[name] = {"stdout": stdout, **json.load(handle)}
    return loaded


def test_definitions_name_the_workloads_the_harness_runs():
    assert WORKLOAD_NAMES == list(WORKLOADS)
    for kind in ("end_to_end", "per_layer"):
        assert all(metric["unit"] for metric in DEFINITIONS[kind])
    assert "setup_s" in {metric["name"] for metric in DEFINITIONS["end_to_end"]}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_defined_metric_is_emitted_and_checks_pass(reports, name):
    report = reports[name]
    summary = report["workloads"][name]
    assert summary["failures"] == [] and summary["failed"] == 0
    # One digest over two hash seeds and the timed and traced passes.
    assert summary["sim_digest"]
    assert {"cpu_model", "cpu_count", "python", "numpy", "commit", "seed"} <= set(
        report["fingerprint"]
    )

    probes = {"constructs.step_batch_us_per_kcell", "world.generate_chunk_us",
              "world.generate_chunk_flat_us", "metrics.record_ns", "metrics.percentile_us"}
    defined = {m["name"] for kind in ("end_to_end", "per_layer") for m in DEFINITIONS[kind]}
    expected = defined if name == WORKLOAD_NAMES[0] else defined - probes
    assert set(summary["metrics"]) == expected
    for metric in DEFINITIONS["end_to_end"] + DEFINITIONS["per_layer"]:
        if metric["name"] in expected:
            assert f" {metric['name']} " in report["stdout"]
    assert summary["metrics"]["ticks_per_s"]["n"] == 2

    layers_off = {
        "players_walk": ["interest.dirty_events_per_tick", "interest.flush_us_per_tick",
                         "constructs.circuits_stepped_per_tick",
                         "coordinator.round_self_us_per_tick"],
        "cluster_mixed": ["sc_engine.plan_us_per_tick"],
    }.get(name, ["coordinator.round_self_us_per_tick"])
    for metric in layers_off:
        assert summary["metrics"][metric]["value"] == 0
    if name == "cluster_mixed":
        assert summary["metrics"]["coordinator.round_self_us_per_tick"]["value"] > 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_spans_form_one_tree_whose_self_times_sum_to_the_traced_wall(reports, name):
    assert name in reports
    with (run.OUT_DIR / f"{name}.trace.json").open(encoding="utf-8") as handle:
        trace = json.load(handle)
    spans = trace["spans"]
    root = spans[0]
    assert trace["names"][root[0]] == "window" and root[3] == -1
    self_us = [end - start for _name, start, end, _parent in spans]
    for index, (_name, start, end, parent) in enumerate(spans[1:], start=1):
        assert 0 <= parent < index
        assert spans[parent][1] <= start <= end <= spans[parent][2]
        self_us[parent] -= end - start
    assert min(self_us) >= -0.5  # times are rounded to 0.01 us in the file
    assert sum(self_us) == pytest.approx(root[2] - root[1], rel=1e-6)


def test_a_failed_check_forfeits_every_tick_of_the_repeat():
    workload = WORKLOADS["players_walk"]
    setup = set_up(workload, seed=5)
    first_tick, ticks = setup.next_tick, 5
    for _ in range(ticks):
        setup.driver(setup.host, setup.next_tick)
        setup.host.tick()
    assert worker.outcome(workload, setup, first_tick, ticks, crash=None)["failed"] == 0

    one_bot_missing = replace(workload, bots=workload.bots + 1)
    broken = worker.outcome(one_bot_missing, setup, first_tick, ticks, crash=None)
    assert broken["failed"] == ticks
    assert any("players connected" in failure for failure in broken["failures"])
    summary = run.summarise({"traced": [broken]})
    assert summary["failed_frac"] == 1.0


def _report(value: float, runs: list[float], digest: str = "d") -> dict:
    ordered = sorted(runs)
    metric = {"value": value, "q1": ordered[0], "q3": ordered[-1], "n": len(runs), "runs": runs}
    return {
        "fingerprint": {"seed": 1, "seconds": 10.0},
        "workloads": {"players_walk": {
            "failed_frac": 0.0, "sim_digest": digest, "metrics": {"ticks_per_s": metric},
        }},
    }


def test_compare_tells_worse_from_unresolved_and_flags_changed_simulation():
    ticks_per_s = {"name": "ticks_per_s", "unit": "ticks/s", "better": "higher", "bound": 0.1}
    definitions = {"end_to_end": [ticks_per_s], "per_layer": []}
    base = _report(100.0, [99.0, 100.0, 101.0])

    def status(report: dict) -> str:
        metric = report["workloads"]["players_walk"]["metrics"]["ticks_per_s"]
        return compare.verdict(
            ticks_per_s, base["workloads"]["players_walk"]["metrics"]["ticks_per_s"], metric
        )

    assert status(_report(80.0, [79.0, 80.0, 81.0])) == "worse"
    assert status(_report(103.0, [102.0, 103.0, 104.0])) == "ok"
    noisy_base = _report(100.0, [80.0, 100.0, 120.0])
    noisy = _report(101.0, [81.0, 101.0, 121.0])
    assert compare.verdict(
        ticks_per_s,
        noisy_base["workloads"]["players_walk"]["metrics"]["ticks_per_s"],
        noisy["workloads"]["players_walk"]["metrics"]["ticks_per_s"],
    ) == "unresolved"

    table, regressed = compare.compare(definitions, base, _report(80.0, [80.0], digest="e"))
    assert regressed and "SIM-CHANGED players_walk" in table and "worse" in table
    assert compare.compare(definitions, base, base)[1] is False
