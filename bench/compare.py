#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py``: ``python3 bench/compare.py A.json B.json``.

Prints, per workload and metric, A's and B's medians and the ratio B/A.  An
end-to-end metric is

* ``worse``      when B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json`` (a share of A's median);
* ``unresolved`` when it is not worse but the quartile ranges of A and B
  overlap by more than that bound — the noise is wider than what the bound
  could detect — unless every run of B beats every run of A;
* ``ok``         otherwise.

Per-layer metrics have no bound and get no verdict.  ``SIM-CHANGED`` marks a
workload whose simulated results differ although the inputs were the same.
Exits non-zero on any ``worse`` or when B failed more of its ticks than A.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent


def load_definitions() -> dict[str, Any]:
    """``BENCHMARK.json``: the workload and metric names, units and bounds."""
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def sim_changed(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    """One ``SIM-CHANGED`` line per workload whose digest moved on identical inputs."""
    if any(a["fingerprint"][key] != b["fingerprint"][key] for key in ("seed", "seconds")):
        return []
    lines = []
    for name, summary in b["workloads"].items():
        before = a["workloads"].get(name)
        if (
            before is not None
            and before["sim_digest"] and summary["sim_digest"]
            and before["sim_digest"] != summary["sim_digest"]
        ):
            lines.append(
                f"SIM-CHANGED {name}: sim_digest {summary['sim_digest'][:16]} "
                f"was {before['sim_digest'][:16]} (same seed and tick count)"
            )
    return lines


def verdict(definition: dict[str, Any], a: dict[str, Any], b: dict[str, Any]) -> str:
    """``worse``, ``unresolved`` or ``ok`` for one end-to-end metric (see module doc)."""
    sign = 1.0 if definition["better"] == "lower" else -1.0
    base = abs(a["value"])
    if base == 0.0:
        return "ok" if b["value"] == a["value"] else "unresolved"
    if sign * (b["value"] - a["value"]) / base > definition["bound"]:
        return "worse"
    overlap = min(a["q3"], b["q3"]) - max(a["q1"], b["q1"])
    b_always_better = all(
        sign * (run_b - run_a) < 0.0 for run_a in a["runs"] for run_b in b["runs"]
    )
    if overlap / base > definition["bound"] and not b_always_better:
        return "unresolved"
    return "ok"


def compare(definitions: dict[str, Any], a: dict[str, Any], b: dict[str, Any]) -> tuple[str, bool]:
    """The comparison table and whether B regressed (a ``worse`` or more failures)."""
    lines = [
        "A: " + ", ".join(f"{k}={v}" for k, v in a["fingerprint"].items()),
        "B: " + ", ".join(f"{k}={v}" for k, v in b["fingerprint"].items()),
        "ratio = B / A",
    ]
    regressed = False
    lines += sim_changed(a, b)
    for name, summary_b in b["workloads"].items():
        summary_a = a["workloads"].get(name)
        if summary_a is None:
            continue
        lines.append(
            f"\n== {name}: failed_frac A {summary_a['failed_frac']:.4g}, "
            f"B {summary_b['failed_frac']:.4g}"
        )
        if summary_b["failed_frac"] > summary_a["failed_frac"]:
            regressed = True
            lines.append("   worse: B failed more of its ticks")
        for kind in ("end_to_end", "per_layer"):
            for definition in definitions[kind]:
                metric_a = summary_a["metrics"].get(definition["name"])
                metric_b = summary_b["metrics"].get(definition["name"])
                if metric_a is None or metric_b is None:
                    continue
                status = verdict(definition, metric_a, metric_b) if "bound" in definition else ""
                regressed |= status == "worse"
                ratio = (
                    f"{metric_b['value'] / metric_a['value']:8.4f}" if metric_a["value"]
                    else "     n/a"
                )
                lines.append(
                    f"   {definition['name']:<42} A {metric_a['value']:>12.6g}  "
                    f"B {metric_b['value']:>12.6g} {definition['unit']:<9} "
                    f"ratio {ratio}  {status}"
                )
    return "\n".join(lines), regressed


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="results of the parent (the base of every ratio)")
    parser.add_argument("b", type=Path, help="results of the change")
    args = parser.parse_args(argv)
    with args.a.open(encoding="utf-8") as handle:
        a = json.load(handle)
    with args.b.open(encoding="utf-8") as handle:
        b = json.load(handle)
    table, regressed = compare(load_definitions(), a, b)
    print(table)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
