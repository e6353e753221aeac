"""Tier-1 smoke tests: every example's main path runs at quick settings.

Each example module is loaded from ``examples/`` by path (they are scripts,
not package members) and its ``main`` is invoked with tiny knobs, so the
examples cannot rot while staying fast enough for the tier-1 suite.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.api import ExperimentSettings

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(f"examples_{name}", EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_directory_is_complete():
    names = sorted(path.stem for path in EXAMPLES_DIR.glob("*.py"))
    assert names == [
        "cost_analysis",
        "quickstart",
        "scalability_comparison",
        "speculative_execution_demo",
        "terrain_generation_demo",
    ]


def test_quickstart_main(capsys):
    result = load_example("quickstart").main(
        players=3, constructs=2, duration_s=2.0, warmup_s=0.5
    )
    out = capsys.readouterr().out
    assert len(result.scenario.tick_durations_ms) == 40
    assert "Serverless offloading" in out
    assert "function invocations" in out


def test_scalability_comparison_main(capsys):
    rows = load_example("scalability_comparison").main(
        games=("opencraft",),
        construct_counts=(0,),
        settings=ExperimentSettings(duration_s=2.0, player_step=100, max_players=100),
    )
    assert len(rows) == 1
    assert rows[0][0] == "opencraft"
    assert int(rows[0][3]) >= 100
    assert "max players" in capsys.readouterr().out


def test_cost_analysis_main(capsys):
    rows = load_example("cost_analysis").main(
        memory_configs_mb=(1769,), steps_options=(100,), constructs=5, game_time_minutes=1.0
    )
    assert len(rows) == 1
    assert rows[0][2].startswith("$")
    assert "cost per hour" in capsys.readouterr().out


def test_speculative_execution_demo_main(capsys):
    backend = load_example("speculative_execution_demo").main(ticks=60, post_edit_ticks=20)
    out = capsys.readouterr().out
    assert "loop detected" in out
    assert "speculation invalidated" in out
    assert backend.metrics.histogram("speculation_efficiency").samples


def test_terrain_generation_demo_main(capsys):
    rows = load_example("terrain_generation_demo").main(
        duration_s=6.0,
        speed_increase_interval_s=2.0,
        settings=ExperimentSettings(duration_s=6.0),
    )
    assert sorted(row[0] for row in rows) == ["opencraft", "servo"]
    assert "view range" in capsys.readouterr().out


@pytest.mark.parametrize(
    "spec_name", ["servo_quick.json", "cluster_shard_kill.json", "terrain_brownout.json"]
)
def test_checked_in_specs_are_valid(spec_name):
    from repro.api import RunSpec

    spec = RunSpec.from_file(EXAMPLES_DIR / "specs" / spec_name)
    assert RunSpec.from_dict(spec.to_dict()) == spec
