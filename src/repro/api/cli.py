"""The ``repro`` command line interface (also ``python -m repro``).

Commands:

* ``repro run <spec.json>`` / ``repro run --game servo --scenario behaviour_a
  --players 20 ...`` — execute one :class:`~repro.api.spec.RunSpec` and print
  its tick-stats summary (``--json`` writes the full
  :class:`~repro.api.result.RunResult`).  Flags override the spec file when
  both are given.
* ``repro experiments list`` — every registered experiment id.
* ``repro experiments run <id>`` — run one experiment and print its report.
* ``repro spec <file>`` — validate a spec file and print its canonical JSON
  (``--check`` additionally asserts dict/JSON round-trips, for CI).
* ``repro report <trace.json>`` — validate a ``--trace`` file against the
  Chrome trace-event schema and print the per-subsystem virtual-time
  breakdown.
* ``repro --version`` — the package version.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional, Sequence

from repro.version import __version__


def _parse_param(raw: str) -> tuple[str, Any]:
    """Parse a ``--param key=value`` pair; values are JSON when they parse."""
    key, separator, value = raw.partition("=")
    if not separator or not key:
        raise argparse.ArgumentTypeError(
            f"expected key=value, got {raw!r} (e.g. --param players=20)"
        )
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value  # bare strings need no quoting


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Declarative runner for the Servo (ICDCS'23) reproduction.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run one spec (from a JSON file, flags, or both)"
    )
    run.add_argument("spec", nargs="?", help="path to a RunSpec JSON file")
    run.add_argument("--game", help="registered host name (e.g. servo, servo-cluster)")
    run.add_argument("--scenario", help="registered scenario name (e.g. behaviour_a)")
    run.add_argument("--players", type=int, help="shorthand for --param players=N")
    run.add_argument("--constructs", type=int, help="shorthand for --param constructs=N")
    run.add_argument(
        "--param",
        action="append",
        default=[],
        type=_parse_param,
        metavar="KEY=VALUE",
        help="scenario parameter (repeatable; value parsed as JSON when possible)",
    )
    run.add_argument("--shards", type=int, help="shard count for cluster hosts")
    run.add_argument("--world-type", choices=("default", "flat"), help="game world type")
    run.add_argument(
        "--interest-radius",
        type=int,
        metavar="CHUNKS",
        help="area-of-interest subscription radius in chunks (0 = full fan-out)",
    )
    run.add_argument("--provider", choices=("aws", "azure"), help="Servo cloud provider")
    run.add_argument("--seed", type=int, help="simulation seed")
    run.add_argument("--duration-s", type=float, help="measured virtual seconds")
    run.add_argument("--warmup-s", type=float, help="warm-up virtual seconds")
    run.add_argument(
        "--faults",
        metavar="PLAN",
        help="fault plan: a JSON file path, inline JSON (starts with '{'), or "
        "'none' to disable the scenario's own faults",
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        help="enable telemetry and write a Chrome trace-event JSON here "
        "(virtual-time clock; open with ui.perfetto.dev)",
    )
    run.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="enable telemetry and write a Prometheus-style metric dump here",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="also collect opt-in wall-clock profiling counters (kept out of "
        "the deterministic virtual results)",
    )
    run.add_argument("--json", metavar="PATH", help="write the full RunResult JSON here")
    run.set_defaults(handler=_cmd_run)

    experiments = commands.add_parser("experiments", help="list or run experiments")
    experiment_commands = experiments.add_subparsers(dest="subcommand", required=True)
    listing = experiment_commands.add_parser("list", help="list registered experiments")
    listing.set_defaults(handler=_cmd_experiments_list)
    exp_run = experiment_commands.add_parser("run", help="run one experiment by id")
    exp_run.add_argument("id", help="experiment id (see `repro experiments list`)")
    exp_run.add_argument(
        "--scale", choices=("quick", "paper"), default="quick",
        help="settings scale (default: quick)",
    )
    exp_run.add_argument("--seed", type=int, help="override the settings seed")
    exp_run.add_argument(
        "--duration-s", type=float, help="override the measured duration"
    )
    exp_run.add_argument(
        "--repetitions", type=int, help="override the repetition count"
    )
    exp_run.set_defaults(handler=_cmd_experiments_run)

    spec = commands.add_parser(
        "spec", help="validate a spec file and print its canonical JSON"
    )
    spec.add_argument("file", help="path to a RunSpec JSON file")
    spec.add_argument(
        "--check",
        action="store_true",
        help="assert dict and JSON round-trips; print OK instead of the spec",
    )
    spec.set_defaults(handler=_cmd_spec)

    report = commands.add_parser(
        "report",
        help="validate a trace file and print its per-subsystem breakdown",
    )
    report.add_argument("trace", help="path to a Chrome trace JSON (from --trace)")
    report.set_defaults(handler=_cmd_report)

    return parser


# -- command handlers ---------------------------------------------------------------------


def _faults_from_arg(raw: str) -> dict:
    """Parse a ``--faults`` value: inline JSON, 'none', or a JSON file path."""
    stripped = raw.strip()
    if stripped == "none":
        return {}  # the empty plan explicitly disables the scenario's faults
    if stripped.startswith("{"):
        plan = json.loads(stripped)
    else:
        with open(raw, "r", encoding="utf-8") as handle:
            plan = json.load(handle)
    if not isinstance(plan, dict):
        raise ValueError(f"--faults must hold a JSON object, got {type(plan).__name__}")
    return plan


def _spec_dict_from_args(args: argparse.Namespace) -> dict:
    """Merge the spec file (if any) with the flag overrides."""
    data: dict = {}
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    host = dict(data.get("host", {}))
    workload = dict(data.get("workload", {}))
    game_config = dict(host.get("game_config", {}))
    servo_config = dict(host.get("servo_config") or {})
    params = dict(workload.get("params", {}))

    if args.game is not None:
        host["game"] = args.game
    if args.shards is not None:
        host["shards"] = args.shards
    if args.world_type is not None:
        game_config["world_type"] = args.world_type
    if args.interest_radius is not None:
        # 0 maps to None: both mean full fan-out.
        game_config["interest_radius_chunks"] = args.interest_radius or None
    if args.provider is not None:
        servo_config["provider"] = args.provider
    if args.scenario is not None:
        workload["scenario"] = args.scenario
    if args.players is not None:
        params["players"] = args.players
    if args.constructs is not None:
        params["constructs"] = args.constructs
    for key, value in args.param:
        params[key] = value
    for key, value in (
        ("seed", args.seed), ("duration_s", args.duration_s), ("warmup_s", args.warmup_s)
    ):
        if value is not None:
            data[key] = value
    if args.faults is not None:
        data["faults"] = _faults_from_arg(args.faults)
    telemetry = dict(data.get("telemetry") or {})
    if args.trace is not None:
        telemetry["trace_path"] = args.trace
    if args.metrics_out is not None:
        telemetry["metrics_path"] = args.metrics_out
    if args.profile:
        telemetry["profile"] = True
    if telemetry:
        data["telemetry"] = telemetry

    if game_config:
        host["game_config"] = game_config
    if servo_config:
        host["servo_config"] = servo_config
    if params:
        workload["params"] = params
    data["host"] = host
    data["workload"] = workload
    if "game" not in host:
        raise ValueError("no host game given: pass a spec file or --game")
    if "scenario" not in workload:
        raise ValueError("no scenario given: pass a spec file or --scenario")
    return data


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api.run import run_spec
    from repro.api.spec import RunSpec

    spec = RunSpec.from_dict(_spec_dict_from_args(args))
    result = run_spec(spec)
    print(result.format_summary())
    telemetry = (spec.telemetry or {}) if spec.telemetry is not None else {}
    if telemetry.get("trace_path"):
        print(f"trace written to {telemetry['trace_path']}")
    if telemetry.get("metrics_path"):
        print(f"metrics written to {telemetry['metrics_path']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(result.to_json())
        print(f"full result written to {args.json}")
    return 0


def _cmd_experiments_list(args: argparse.Namespace) -> int:
    from repro.experiments.harness import format_table
    from repro.experiments.registry import EXPERIMENTS

    rows = [
        [entry.experiment_id, entry.description]
        for _, entry in sorted(EXPERIMENTS.items())
    ]
    print(format_table(["id", "description"], rows))
    return 0


def _cmd_experiments_run(args: argparse.Namespace) -> int:
    from repro.experiments.harness import settings_for_scale
    from repro.experiments.registry import run_experiment

    settings = settings_for_scale(args.scale)
    overrides = {
        name: value
        for name, value in (
            ("seed", args.seed),
            ("duration_s", args.duration_s),
            ("repetitions", args.repetitions),
        )
        if value is not None
    }
    if overrides:
        settings = settings.scaled(**overrides)
    _, report = run_experiment(args.id, settings)
    print(report)
    return 0


def _cmd_spec(args: argparse.Namespace) -> int:
    from repro.api.spec import RunSpec

    spec = RunSpec.from_file(args.file)
    if args.check:
        if RunSpec.from_dict(spec.to_dict()) != spec:
            print("spec dict round-trip FAILED", file=sys.stderr)
            return 1
        if RunSpec.from_json(spec.to_json()) != spec:
            print("spec JSON round-trip FAILED", file=sys.stderr)
            return 1
        print(f"OK: {args.file} is valid and round-trips")
        return 0
    print(spec.to_json())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import format_trace_report, load_trace, validate_chrome_trace

    trace = load_trace(args.trace)
    problems = validate_chrome_trace(trace)
    if problems:
        for problem in problems[:20]:
            print(f"schema problem: {problem}", file=sys.stderr)
        if len(problems) > 20:
            print(f"... and {len(problems) - 20} more", file=sys.stderr)
        return 1
    print(format_trace_report(trace, source=args.trace))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        return 0  # e.g. `repro experiments list | head`
    except (ValueError, TypeError, OSError) as error:
        # TypeError covers mistyped values that pass JSON parsing but fail
        # downstream validation (e.g. --param players=abc).
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
