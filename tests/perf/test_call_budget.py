"""A noise-free performance ratchet: Python calls per bench workload, per package.

For each of the five bench workloads, a process forked from a fresh
interpreter (which has only imported the package) builds and warms the host
with ``bench.workloads.set_up(workload, 42)``, uncounted, and then runs
:data:`TICKS` ticks under ``cProfile``.  The calls made in those ticks
are grouped as the bench census groups them: by ``repro`` package, and
``ext`` for everything else (numpy, builtins, generated dataclass methods).
``call_budget.json`` records the counts, and a test fails when

* any count rises above its budget: the change added interpreter work to a
  hot path; or
* any count falls more than 1 % below its budget: lower the file, so the
  gain is recorded in the diff.

Counts are exact: the same tree gives the same numbers on any machine, at any
load and under any hash seed, so one run decides.  The blind spot: the gate
counts interpreter calls, not array sizes or the work inside one call.  An
O(n^2) numpy call, a larger batch or a slower C loop passes it.  Wall-clock
pairs (``bench/run.py``) measure that; this gate complements them and does
not replace them.

Counts depend on the interpreter: the file records the Python and numpy
versions it was written under.  Under another Python minor version the test
is skipped; under another numpy version only ``ext`` is left out.

Rewrite the file after an intended change with::

    PYTHONPATH=src python tests/perf/test_call_budget.py --update

and report the change and its reason in CHANGES.md, like any other gate.
"""

from __future__ import annotations

import cProfile
import gc
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BUDGET = Path(__file__).resolve().parent / "call_budget.json"
WORKLOADS = ("players_walk", "construct_fleet", "interest_walk", "terrain_star", "cluster_mixed")
SEED = 42
#: ticks counted after set-up: all five workloads together take about 3 s
TICKS = 40
#: a count may fall this far below its budget before the file must be lowered
SLACK = 0.01


def versions() -> dict[str, str]:
    return {
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "numpy": np.__version__,
    }


def bench_workloads():
    """The ``bench.workloads`` module, importable from the repository root."""
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import bench.workloads

    return bench.workloads


def count_calls(name: str) -> dict[str, int]:
    """Python calls per package in :data:`TICKS` ticks of workload ``name``."""
    workloads = bench_workloads()
    setup = workloads.set_up(workloads.WORKLOADS[name], SEED)
    host, driver = setup.host, setup.driver
    first = setup.next_tick
    profile = cProfile.Profile()
    gc.collect()
    profile.enable()
    for tick_index in range(first, first + TICKS):
        driver(host, tick_index)
        host.tick()
    profile.disable()
    calls: dict[str, int] = {}
    for entry in profile.getstats():
        _, found, inside = getattr(entry.code, "co_filename", "").partition("/repro/")
        package = inside.split("/", 1)[0] if found else "ext"
        calls[package] = calls.get(package, 0) + entry.callcount
    return dict(sorted(calls.items()))


def count_all() -> dict[str, dict[str, int]]:
    """Every workload's counts, each in a child forked before any host was built.

    One import serves all five, two run at a time (the slowest,
    ``cluster_mixed``, first), and no child inherits another workload's state
    or warmed caches.
    """
    bench_workloads()
    order = WORKLOADS[::-1]
    with multiprocessing.get_context("fork").Pool(2, maxtasksperchild=1) as pool:
        counts = dict(zip(order, pool.map(count_calls, order, chunksize=1)))
    return {name: counts[name] for name in WORKLOADS}


def measure() -> dict[str, dict[str, int]]:
    """:func:`count_all` in a fresh interpreter, away from this process's state.

    One BLAS thread keeps that interpreter single-threaded, so it may fork.
    """
    completed = subprocess.run(
        [sys.executable, __file__, "--count"],
        cwd=ROOT,
        env={
            **os.environ,
            "PYTHONHASHSEED": "0",
            "PYTHONDONTWRITEBYTECODE": "1",
            "OPENBLAS_NUM_THREADS": "1",
        },
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


@pytest.fixture(scope="module")
def budget() -> dict:
    recorded = json.loads(BUDGET.read_text(encoding="utf-8"))
    if recorded["python"] != versions()["python"]:
        pytest.skip(f"call budget recorded under Python {recorded['python']}")
    return recorded


@pytest.fixture(scope="module")
def measured(budget) -> dict[str, dict[str, int]]:
    return measure()


def test_the_budget_covers_every_bench_workload(budget):
    assert tuple(bench_workloads().WORKLOADS) == WORKLOADS
    assert tuple(budget["workloads"]) == WORKLOADS
    assert (budget["ticks"], budget["seed"]) == (TICKS, SEED)


@pytest.mark.parametrize("name", WORKLOADS)
def test_no_call_count_rises_or_falls_unrecorded(budget, measured, name):
    allowed = dict(budget["workloads"][name])
    counts = dict(measured[name])
    if budget["numpy"] != versions()["numpy"]:
        allowed.pop("ext", None)
        counts.pop("ext", None)
    rose = {
        package: (allowed.get(package, 0), count)
        for package, count in counts.items()
        if count > allowed.get(package, 0)
    }
    fell = {
        package: (limit, counts.get(package, 0))
        for package, limit in allowed.items()
        if counts.get(package, 0) < limit * (1.0 - SLACK)
    }
    assert not rose, f"{name}: calls rose (budget, measured): {rose}"
    assert not fell, (
        f"{name}: calls fell more than {SLACK:.0%} (budget, measured): {fell}; "
        "lower tests/perf/call_budget.json"
    )


if __name__ == "__main__":
    if sys.argv[1:] == ["--count"]:
        print(json.dumps(count_all()))
    elif sys.argv[1:] == ["--update"]:
        document = {**versions(), "seed": SEED, "ticks": TICKS, "workloads": measure()}
        BUDGET.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    else:
        sys.exit("usage: test_call_budget.py --count | --update")
