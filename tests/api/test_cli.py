"""The `repro` CLI (python -m repro) driven in-process."""

import json
from pathlib import Path

import pytest

from repro.api.cli import main
from repro.version import __version__

REPO_ROOT = Path(__file__).resolve().parents[2]
SERVO_QUICK_SPEC = REPO_ROOT / "examples" / "specs" / "servo_quick.json"

TINY_RUN_FLAGS = [
    "run",
    "--game", "opencraft",
    "--scenario", "behaviour_a",
    "--players", "3",
    "--constructs", "2",
    "--duration-s", "2",
    "--warmup-s", "0.5",
    "--world-type", "flat",
    "--seed", "3",
]


def test_version_reports_package_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == f"repro {__version__}"


def test_experiments_list(capsys):
    assert main(["experiments", "list"]) == 0
    out = capsys.readouterr().out
    for experiment_id in ("fig01", "fig07a", "fig13", "tab01", "cluster"):
        assert experiment_id in out


def test_experiments_run_tab01(capsys):
    assert main(["experiments", "run", "tab01"]) == 0
    assert "IV-B" in capsys.readouterr().out


def test_experiments_run_unknown_id(capsys):
    assert main(["experiments", "run", "fig99"]) == 2
    assert "unknown experiment 'fig99'" in capsys.readouterr().err


def test_run_from_flags(capsys):
    assert main(TINY_RUN_FLAGS) == 0
    out = capsys.readouterr().out
    assert "A-3p-2sc on opencraft" in out
    assert "tick durations (ms)" in out


def test_run_checked_in_spec_file_deterministic(tmp_path, capsys):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", str(SERVO_QUICK_SPEC), "--duration-s", "2", "--json", str(out_a)]) == 0
    assert main(["run", str(SERVO_QUICK_SPEC), "--duration-s", "2", "--json", str(out_b)]) == 0
    capsys.readouterr()
    summary_a = json.loads(out_a.read_text())["summary"]
    summary_b = json.loads(out_b.read_text())["summary"]
    assert summary_a == summary_b
    assert summary_a["host"] == "servo"


def test_run_flag_overrides_spec_file(capsys):
    assert main(["run", str(SERVO_QUICK_SPEC), "--duration-s", "1", "--players", "2"]) == 0
    out = capsys.readouterr().out
    assert "A-2p-10sc" in out  # players overridden, constructs from the file
    assert "1s measured (20 ticks)" in out


def test_run_requires_game_and_scenario(capsys):
    assert main(["run"]) == 2
    assert "no host game given" in capsys.readouterr().err
    assert main(["run", "--game", "servo"]) == 2
    assert "no scenario given" in capsys.readouterr().err


def test_run_mistyped_param_fails_cleanly(capsys):
    assert main(["run", "--game", "opencraft", "--scenario", "behaviour_a",
                 "--param", "players=abc", "--duration-s", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_unknown_game_exits_with_registry_error(capsys):
    assert main(["run", "--game", "doom", "--scenario", "sinc"]) == 2
    assert "unknown host 'doom'" in capsys.readouterr().err


def test_spec_prints_canonical_json(capsys):
    assert main(["spec", str(SERVO_QUICK_SPEC)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["host"]["game"] == "servo"
    assert payload["workload"]["scenario"] == "behaviour_a"


def test_spec_check_round_trips(capsys):
    assert main(["spec", str(SERVO_QUICK_SPEC), "--check"]) == 0
    assert "round-trips" in capsys.readouterr().out


def test_spec_rejects_invalid_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"host": {"game": "servo"}, "workload": {"scenario": "sinc"},
                               "duration_s": -5}))
    assert main(["spec", str(bad), "--check"]) == 2
    assert "duration_s must be positive" in capsys.readouterr().err

