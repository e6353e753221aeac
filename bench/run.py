#!/usr/bin/env python3
"""Run the benchmark: ``python3 bench/run.py`` (see ``bench/README.md``).

Without ``--trace`` it runs the whole protocol — every workload, ``--repeats``
timed repeats interleaved round-robin, then one traced, one census and one
probes pass — prints every metric named in ``BENCHMARK.json`` with its unit,
and writes the results to ``--out``.

With ``--workload NAME --seed N --seconds S --trace 0|1`` it is the contract's
single run: five timed repeats and the end-to-end metrics (``--trace 0``), or
two timed repeats plus the traced, census and probes passes and the per-layer
metrics (``--trace 1``), as one JSON object on the last line.

Every pass runs in a fresh ``python -m bench.worker`` process.  Tick counts are
fixed by ``--seconds`` (work is fixed, not time), so simulated results repeat
exactly per seed and only host time varies between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import PASSES  # noqa: E402
from bench.compare import load_definitions, sim_changed  # noqa: E402

OUT_DIR = ROOT / "bench" / "out"
BASELINE = ROOT / "bench" / "baseline" / "a.json"
#: timed repeats of one contract run; ``--seconds`` is shared evenly between
#: them, and every other window is that long too, so all digests are comparable
DRIVER_REPEATS = 5
FULL_REPEATS = 5


def fingerprint(seed: int, seconds: float, repeats: int) -> dict[str, Any]:
    """Where and how the numbers were taken, so two result files can be compared."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    commit = "unknown"
    try:
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True, text=True
        )
        if git.returncode == 0:
            commit = git.stdout.strip()
    except OSError:
        pass
    return {
        "cpu_model": cpu_model,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats,
    }


def run_worker(
    workload: str, pass_name: str, seed: int, seconds: float, repeat: int
) -> dict[str, Any]:
    """One pass in a fresh process; ``PYTHONHASHSEED`` is the repeat number.

    Varying the hash seed makes the determinism check also catch results that
    depend on salted ``hash()`` or set order.  A worker that cannot run at all
    (as opposed to a workload that fails a check) is an error of the harness.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(repeat)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    command = [
        sys.executable, "-m", "bench.worker",
        "--workload", workload, "--pass", pass_name,
        "--seed", str(seed), "--repeat", str(repeat),
        "--window-seconds", repr(seconds / DRIVER_REPEATS),
    ]
    if pass_name == "traced":
        command += ["--trace-out", str(OUT_DIR / f"{workload}.trace.json")]
    print(f"[bench] {workload} {pass_name} r{repeat}", file=sys.stderr, flush=True)
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(
            f"worker {workload}/{pass_name} exited {done.returncode}:\n{done.stderr.strip()}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict[str, Any]:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "runs": values}


def summarise(passes: dict[str, list[dict[str, Any]]]) -> dict[str, Any]:
    """Fold one workload's pass results into medians, failures and one digest."""
    results = [result for name in PASSES for result in passes.get(name, [])]
    failures = [
        f"{name}: {failure}"
        for name in PASSES
        for result in passes.get(name, [])
        for failure in result["failures"]
    ]
    attempted = sum(result["ticks"] for result in results)
    failed = sum(result["failed"] for result in results)

    # Timed and traced runs do identical simulated work, whatever the hash seed.
    digests = {
        result.get("sim_digest")
        for name in ("timed", "traced")
        for result in passes.get(name, [])
    }
    if len(digests) > 1:
        failures.append(f"sim_digest differs between repeats or passes: {sorted(map(str, digests))}")
        failed = attempted

    metrics: dict[str, dict[str, Any]] = {}
    for name in PASSES:
        runs: dict[str, list[float]] = {}
        for result in passes.get(name, []):
            for metric, value in result["metrics"].items():
                runs.setdefault(metric, []).append(value)
        # A pass run later only adds names; the timed pass owns the simulated metrics.
        for metric, values in runs.items():
            metrics.setdefault(metric, _summary(values))
    # Every pass sets the same host up; as with ticks, the fastest is the
    # set-up without the machine's interference.
    setups = [result["setup_s"] for result in results if "setup_s" in result]
    if setups:
        metrics["setup_s"] = {**_summary(setups), "value": min(setups)}
    timed = [result["tick_s"] for result in passes.get("timed", []) if result["tick_s"]]
    if timed:
        # The reference box alternates between two speeds about 1.6x apart, in
        # phases of about a second; a median of whole repeats keeps that noise.
        # Every repeat does identical work at each tick index, so a tick's
        # fastest time over the repeats is that work without the interference.
        fastest = sorted(min(samples) for samples in zip(*timed))
        rates = [len(tick_s) / sum(tick_s) for tick_s in timed]
        metrics["ticks_per_s"] = {**_summary(rates), "value": len(fastest) / sum(fastest)}
        for name, q in (("gameloop.tick_wall_ms_p50", 0.50), ("gameloop.tick_wall_ms_p99", 0.99)):
            metrics[name] = _summary([fastest[round(q * (len(fastest) - 1))] * 1e3])
        traced_walls = [r["wall_s"] for r in passes.get("traced", []) if "wall_s" in r]
        if traced_walls:
            median_wall = statistics.median(map(sum, timed))
            metrics["trace.overhead_frac"] = _summary([traced_walls[0] / median_wall - 1.0])
    return {
        "ticks": max((result["ticks"] for result in results), default=0),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 0.0,
        "failures": failures,
        "sim_digest": next(iter(digests)) if len(digests) == 1 else None,
        "metrics": metrics,
    }


def run_benchmark(
    workloads: list[str], passes: list[str], seed: int, seconds: float, repeats: int
) -> dict[str, dict[str, Any]]:
    """Run the cells and summarise them per workload.

    Timed repeats interleave round-robin across workloads (r0: w1..wN, r1:
    w1..wN, ...), so each workload's median samples the whole session's noise
    instead of one stretch of it.
    """
    collected: dict[str, dict[str, list]] = {name: {} for name in workloads}
    if "timed" in passes:
        for repeat in range(repeats):
            for workload in workloads:
                collected[workload].setdefault("timed", []).append(
                    run_worker(workload, "timed", seed, seconds, repeat)
                )
    for pass_name in ("traced", "census"):
        if pass_name in passes:
            for workload in workloads:
                collected[workload][pass_name] = [
                    run_worker(workload, pass_name, seed, seconds, 0)
                ]
    if "probes" in passes:
        # Probes exercise single functions, not a workload: run once, report everywhere.
        probes = run_worker(workloads[0], "probes", seed, seconds, 0)
        for workload in workloads:
            collected[workload]["probes"] = [probes]
    return {name: summarise(collected[name]) for name in workloads}


def print_table(definitions: dict[str, Any], report: dict[str, Any]) -> None:
    print("environment: " + ", ".join(f"{k}={v}" for k, v in report["fingerprint"].items()))
    kinds = (("end to end", definitions["end_to_end"]), ("per layer", definitions["per_layer"]))
    for workload, summary in report["workloads"].items():
        digest = summary["sim_digest"] or "none"
        print(f"\n== {workload}: {summary['ticks']} ticks per repeat, "
              f"failed_frac {summary['failed_frac']:.4g} "
              f"({summary['failed']}/{summary['attempted']}), sim_digest {digest[:16]}")
        for failure in summary["failures"]:
            print(f"   FAILED {failure}")
        for title, metric_definitions in kinds:
            rows = [(d, summary["metrics"][d["name"]]) for d in metric_definitions
                    if d["name"] in summary["metrics"]]
            if rows:
                print(f"   -- {title}")
            for definition, metric in rows:
                spread = (f"  [{metric['q1']:.6g} .. {metric['q3']:.6g}]"
                          if metric["n"] > 1 else "")
                print(f"   {definition['name']:<42} {metric['value']:>14.6g} "
                      f"{definition['unit']:<9} n={metric['n']}{spread}")


def contract_line(
    definitions: dict[str, Any], summary: dict[str, Any], trace: int
) -> dict[str, Any]:
    """The contract's result object: end-to-end metrics, or per-layer with ``--trace 1``."""
    wanted = definitions["per_layer"] if trace else definitions["end_to_end"]
    missing = [d["name"] for d in wanted if d["name"] not in summary["metrics"]]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}; failures: {summary['failures']}")
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            d["name"]: {"value": summary["metrics"][d["name"]]["value"], "unit": d["unit"]}
            for d in wanted
        },
    }


def main(argv: Optional[list[str]] = None) -> int:
    definitions = load_definitions()
    names = [workload["name"] for workload in definitions["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--pass", dest="passes", action="append", choices=PASSES,
                        help="run only this pass (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=42,
                        help="feeds the engine seed and the construct-fleet generator")
    parser.add_argument("--seconds", type=float, default=float(definitions["run_seconds"]),
                        help=f"timed seconds of one {DRIVER_REPEATS}-repeat run on the "
                             "reference box; sets the fixed tick counts")
    parser.add_argument("--repeats", type=int,
                        help=f"timed repeats per workload (default {FULL_REPEATS})")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="contract run of one --workload: 0 = end-to-end metrics, "
                             "1 = per-layer metrics; prints one JSON object last")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "results.json",
                        help="where the full results are written")
    args = parser.parse_args(argv)

    workloads = args.workload or names
    if args.trace is None:
        passes, repeats = args.passes or list(PASSES), args.repeats or FULL_REPEATS
    elif len(workloads) != 1 or args.passes or args.repeats:
        parser.error("--trace takes exactly one --workload and no --pass/--repeats")
    elif args.trace:
        passes, repeats = list(PASSES), 2
    else:
        passes, repeats = ["timed"], DRIVER_REPEATS

    try:
        summaries = run_benchmark(workloads, passes, args.seed, args.seconds, repeats)
        report = {
            "fingerprint": fingerprint(args.seed, args.seconds, repeats),
            "workloads": summaries,
        }
        print_table(definitions, report)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
        if BASELINE.exists():
            with BASELINE.open(encoding="utf-8") as handle:
                for line in sim_changed(json.load(handle), report):
                    print(line)
        if args.trace is not None:
            print(json.dumps(contract_line(definitions, summaries[workloads[0]], args.trace)))
    except RuntimeError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
