"""Run the mutant kill table: each row, applied alone, against its recorded killers.

    python tests/mutation/run.py

The tree (``src/``, ``tests/``, ``bench/`` and ``BENCHMARK.json``) is copied
once to a temporary directory; each row is applied to the copy and reverted
after.  The tests travel with ``src/`` because some resolve their
subprocesses' ``PYTHONPATH`` from their own file: next to an unmutated
``src/`` they would import it and report a false kill.  For each row the
runner

1. checks that the row's rule, while the linter still has it, flags the
   mutated file;
2. runs the row's probe under two hash seeds and requires two different
   outputs, where the clean copy prints one (the mutant is not equivalent);
3. runs every recorded killer alone with ``pytest -x``.  It kills the row
   only when pytest exits 1 (a test failed), not on a collection, import or
   usage error.

Killers run under ``PYTHONHASHSEED=0``, so every cell reproduces.  The
runner prints the matrix and each rule's decision — a rule may go only when
every one of its rows has an oracle killer — and exits 1 when any check
fails.  The whole table takes a few minutes on a 2-core box.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from mutants import PACKAGE, ROOT, Mutant, flags, live_rules, load_table

sys.path.insert(0, str(ROOT / "src"))  # the linter that decides "flagged"

COPIED = ("src", "tests", "bench", "BENCHMARK.json")
PROBE_SEEDS = ("1", "2")
TIMEOUT_S = 600


def _env(tree: Path, hash_seed: str) -> dict[str, str]:
    return {
        **os.environ,
        "PYTHONPATH": str(tree / "src"),
        "PYTHONHASHSEED": hash_seed,
        "PYTHONDONTWRITEBYTECODE": "1",
    }


def _copy(tree: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "out")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, tree / name, ignore=ignore)
        else:
            shutil.copy2(source, tree / name)


def _probe_outputs(tree: Path, code: str) -> set[str]:
    outputs = set()
    for seed in PROBE_SEEDS:
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=tree, env=_env(tree, seed),
            capture_output=True, text=True, timeout=TIMEOUT_S,
        )
        # A crash is a difference too, but say so rather than hide it.
        outputs.add(done.stdout if done.returncode == 0 else f"exit {done.returncode}")
    return outputs


def _pytest(tree: Path, test_ids: list[str]) -> int:
    """pytest's exit code: 0 all passed, 1 a test failed, 2 and up anything else."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *test_ids],
        cwd=tree, env=_env(tree, "0"), capture_output=True, text=True, timeout=TIMEOUT_S,
    ).returncode


def run_row(tree: Path, mutant: Mutant, probe: str, rules: frozenset[str]) -> dict:
    path = tree / PACKAGE / mutant.file
    source = path.read_text(encoding="utf-8")
    result = {"flagged": flags(mutant, source) if mutant.rule in rules else None}
    path.write_text(mutant.apply(source), encoding="utf-8")
    try:
        result["differs"] = len(_probe_outputs(tree, probe)) > 1
        for column in ("oracle", "pin"):
            result[column] = [_pytest(tree, [test_id]) == 1 for test_id in getattr(mutant, column)]
    finally:
        path.write_text(source, encoding="utf-8")
    return result


def _cell(kills: list[bool]) -> str:
    return f"{sum(kills)}/{len(kills)}" if kills else "-"


def main() -> int:
    rows, probes = load_table()
    rules = live_rules()
    failed = []
    print(f"{'row':28} {'rule':6} {'flagged':7} {'differs':7} {'oracle':6} {'pin':5}")
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy(tree)
        for name in sorted({row.probe for row in rows}):
            if len(_probe_outputs(tree, probes["prelude"] + probes[name])) != 1:
                failed.append(f"probe {name} differs on the clean tree")
        # A killer that fails without any mutant would count as a false kill.
        killers = sorted({test_id for row in rows for test_id in row.oracle + row.pin})
        if killers and _pytest(tree, killers) != 0:
            failed.append("a recorded killer fails on the clean tree")
        for row in rows:
            result = run_row(tree, row, probes["prelude"] + probes[row.probe], rules)
            flagged = {None: "gone", True: "yes", False: "NO"}[result["flagged"]]
            print(
                f"{row.id:28} {row.rule:6} {flagged:7} {'yes' if result['differs'] else 'NO':7} "
                f"{_cell(result['oracle']):6} {_cell(result['pin']):5}"
            )
            if result["flagged"] is False:
                failed.append(f"{row.id}: {row.rule} does not flag it")
            if not result["differs"]:
                failed.append(f"{row.id}: equivalent, its probe prints one output")
            for column in ("oracle", "pin"):
                for test_id, kills in zip(getattr(row, column), result[column]):
                    if not kills:
                        failed.append(f"{row.id}: {column} killer {test_id} no longer kills it")

    print()
    for rule in sorted({row.rule for row in rows}):
        survivors = [row.id for row in rows if row.rule == rule and not row.oracle]
        decision = f"keep, no oracle kills {', '.join(survivors)}" if survivors else "delete"
        print(f"{rule}: {decision}")
    for problem in failed:
        print(f"FAIL {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
