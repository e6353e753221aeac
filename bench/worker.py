"""One pass over one workload, in a fresh process: ``python -m bench.worker``.

``bench/run.py`` starts one of these per repeat (with ``PYTHONHASHSEED`` set
to the repeat number) and reads the JSON object printed on the last line.

* ``timed``  — the uninstrumented loop ``driver(host, i); host.tick()``, one
  clock stamp per tick; every end-to-end metric comes from here (``run.py``
  turns the per-tick times of all repeats into ``ticks_per_s``).
* ``traced`` — the same loop with the layer entry points wrapped in spans
  (:mod:`bench.spans`); every ``*_us_per_tick`` and count comes from here.
* ``census`` — a short window under ``cProfile``; exact Python call counts
  per ``repro`` package.
* ``probes`` — fixed micro-workloads on single functions, no host.
"""

import time

#: stamped before numpy and repro are imported, so set-up time includes them
PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Optional  # noqa: E402

import numpy as np  # noqa: E402

from bench import PASSES  # noqa: E402
from bench.spans import ROOT, SpanRecorder, instrument, servers_of  # noqa: E402
from bench.workloads import (  # noqa: E402
    CENSUS_TICKS,
    WORKLOADS,
    Setup,
    Workload,
    build_fleet,
    set_up,
    sim_digest,
    sim_metrics,
    verify,
)
from repro.constructs import compile_circuit  # noqa: E402
from repro.constructs.batched import BatchedCircuitStepper  # noqa: E402
from repro.core.offload import SC_SIMULATION_FUNCTION  # noqa: E402
from repro.core.terrain_service import TERRAIN_GENERATION_FUNCTION  # noqa: E402
from repro.sim.metrics import Histogram  # noqa: E402
from repro.world.coords import ChunkPos  # noqa: E402
from repro.world.terrain import make_terrain_generator  # noqa: E402

#: census groups; calls made anywhere else (numpy, builtins, the loop) are "ext"
CENSUS_PACKAGES = (
    "workload", "net", "server", "constructs", "interest", "cluster",
    "core", "faas", "storage", "world", "sim", "obs",
)
CALIBRATION_OPS = 2_000_000


def _run_ticks(setup: Setup, ticks: int, each_tick: Callable[[int], None]) -> Optional[str]:
    """Call ``each_tick(tick_index)`` ``ticks`` times; a crash comes back as one line."""
    first = setup.next_tick
    try:
        for tick_index in range(first, first + ticks):
            each_tick(tick_index)
    except Exception:  # the repeat is reported as failed, with the reason
        return "crashed: " + traceback.format_exc().strip().splitlines()[-1]
    return None


def outcome(
    workload: Workload, setup: Setup, first_tick: int, ticks: int,
    crash: Optional[str], replay_constructs: bool = False,
) -> dict[str, Any]:
    """Attempted/failed ticks, the failed checks, and the simulated results.

    A crash forfeits the ticks that did not run; a failed check forfeits all.
    """
    done = setup.next_tick - first_tick
    if crash is not None:
        failures, failed = [crash], ticks - done
    else:
        failures = verify(workload, setup, first_tick, ticks, replay_constructs)
        failed = ticks if failures else 0
    outcome = {"ticks": ticks, "failed": failed, "failures": failures, "metrics": {}}
    if done:
        outcome["sim_digest"] = sim_digest(setup, first_tick)
        outcome["metrics"] = sim_metrics(setup, first_tick)
    return outcome


def _timed_set_up(workload: Workload, seed: int, process_start: float) -> tuple[Setup, float]:
    """Set the workload up; also the seconds since the process started (``setup_s``)."""
    setup = set_up(workload, seed)
    return setup, time.perf_counter() - process_start


def _calibration_mops() -> float:
    """A fixed pure-Python loop: tells machine drift from a code change."""
    start = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_OPS):
        total += value & 3
    return CALIBRATION_OPS / (time.perf_counter() - start) / 1e6


# -- timed -----------------------------------------------------------------------------


def timed_pass(
    workload: Workload, seed: int, ticks: int, replay_constructs: bool, process_start: float
) -> dict[str, Any]:
    setup, setup_s = _timed_set_up(workload, seed, process_start)
    host, driver, clock = setup.host, setup.driver, time.perf_counter
    tick = host.tick
    first_tick = setup.next_tick
    stamps = [0.0] * (ticks + 1)

    def each_tick(tick_index: int) -> None:
        driver(host, tick_index)
        tick()
        stamps[tick_index - first_tick + 1] = clock()

    gc.collect()
    stamps[0] = clock()
    crash = _run_ticks(setup, ticks, each_tick)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration = _calibration_mops()

    result = outcome(workload, setup, first_tick, ticks, crash, replay_constructs)
    done = setup.next_tick - first_tick
    result["setup_s"] = setup_s
    #: per-tick wall seconds; run.py filters interference across repeats with them
    result["tick_s"] = np.diff(stamps[: done + 1]).tolist()
    result["metrics"].update({"peak_rss_mb": peak_rss_mb, "env.calib_mops": calibration})
    return result


# -- traced ----------------------------------------------------------------------------


def _platforms(servers: list) -> list:
    unique = {id(s.runtime.platform): s.runtime.platform for s in servers if s.runtime}
    return list(unique.values())


def _cache_reads(servers: list) -> tuple[int, int]:
    stats = [s.runtime.storage.cache.stats for s in servers if s.runtime]
    return sum(s.hits for s in stats), sum(s.misses for s in stats)


def traced_pass(
    workload: Workload, seed: int, ticks: int, trace_path: Optional[Path], process_start: float
) -> dict[str, Any]:
    setup, setup_s = _timed_set_up(workload, seed, process_start)
    host = setup.host
    servers = servers_of(host)
    recorder = SpanRecorder()
    counts = instrument(host, recorder)
    driver = recorder.wrap("workload.driver", setup.driver)
    tick = recorder.wrap("coordinator.tick", host.tick) if workload.shards else host.tick

    def each_tick(tick_index: int) -> None:
        driver(host, tick_index)
        tick()

    metrics = host.engine.metrics
    counters = ("migrations", "interest_cross_shard_events", "offload_invocations")
    counters_before = {name: metrics.counter(name) for name in counters}
    messages_before = sum(server.stats.messages_processed for server in servers)
    invocations_before = [len(platform.invocations) for platform in _platforms(servers)]
    hits_before, misses_before = _cache_reads(servers)
    first_tick = setup.next_tick

    gc.collect()
    crash = recorder.wrap(ROOT, _run_ticks)(setup, ticks, each_tick)

    result = outcome(workload, setup, first_tick, ticks, crash)
    result["setup_s"] = setup_s
    if trace_path is not None:
        recorder.write(trace_path, {"workload": workload.name, "seed": seed, "ticks": ticks})
    done = setup.next_tick - first_tick
    if not done:
        return result

    self_times = recorder.self_times()
    wall_s = recorder.spans[0][2] - recorder.spans[0][1]

    def us_per_tick(*names: str) -> float:
        return sum(self_times.get(name, (0.0, 0))[0] for name in names) * 1e6 / done

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    delta = {name: metrics.counter(name) - counters_before[name] for name in counters}
    invocations = [
        invocation
        for platform, before in zip(_platforms(servers), invocations_before)
        for invocation in platform.invocations[before:]
    ]
    hits_after, misses_after = _cache_reads(servers)
    cache_hits, cache_misses = hits_after - hits_before, misses_after - misses_before
    dirty_events = self_times.get("interest.note_dirty", (0.0, 0))[1]
    records = host.tick_records[first_tick:]
    unattributed = ("gameloop.tick_begin", "gameloop.tick_finish", "coordinator.tick")

    result["wall_s"] = wall_s
    result["metrics"].update({
        "workload.act_us_per_tick": us_per_tick("workload.driver"),
        "workload.msgs_per_tick": (
            sum(server.stats.messages_processed for server in servers) - messages_before
        ) / done,
        "gameloop.begin_self_us_per_tick": us_per_tick("gameloop.tick_begin"),
        "gameloop.finish_self_us_per_tick": us_per_tick("gameloop.tick_finish"),
        "chunkmanager.update_us_per_tick": us_per_tick(
            "chunkmanager.update", "chunkmanager.persist_dirty"),
        "chunkmanager.chunks_integrated_per_tick":
            sum(record.chunks_integrated for record in records) / done,
        "chunkmanager.chunks_streamed_per_tick": counts.chunks_streamed / done,
        "chunkmanager.generation_backlog_max": counts.generation_backlog_max,
        "chunkmanager.loaded_chunks_end":
            sum(server.world.loaded_chunk_count for server in servers),
        "sc_engine.plan_us_per_tick": us_per_tick("sc_engine.begin_tick", "sc_engine.finish"),
        "sc_engine.quiescent_skip_ratio":
            ratio(counts.constructs_skipped_quiescent, counts.constructs_advanced),
        "constructs.step_us_per_tick": us_per_tick("constructs.step"),
        "constructs.circuits_stepped_per_tick": counts.circuits_stepped / done,
        "constructs.cells_stepped_per_tick": counts.cells_stepped / done,
        "interest.note_dirty_us_per_tick": us_per_tick("interest.note_dirty"),
        "interest.flush_us_per_tick": us_per_tick("interest.flush"),
        "interest.update_center_us_per_tick": us_per_tick("interest.update_center"),
        "interest.dirty_events_per_tick": dirty_events / done,
        "interest.entries_per_tick": counts.interest_entries / done,
        "interest.flushes_per_tick": counts.interest_flushes / done,
        "interest.encode_share_ratio": ratio(counts.interest_entries, dirty_events),
        "interest.staleness_max_ticks": counts.interest_staleness_max,
        "costmodel.duration_us_per_tick": us_per_tick("costmodel.duration_ms"),
        "engine.dispatch_us_per_tick": us_per_tick("engine.advance_to"),
        "faas.invoke_us_per_tick": us_per_tick(
            "faas.invoke", "faas.invoke_async", "faas.invoke_with_retry"),
        "faas.invocations_per_tick": len(invocations) / done,
        "faas.terrain_invocations": sum(
            1 for i in invocations if i.function_name == TERRAIN_GENERATION_FUNCTION),
        "faas.sim_invocations": sum(
            1 for i in invocations if i.function_name == SC_SIMULATION_FUNCTION),
        "faas.cold_start_frac":
            ratio(sum(1 for i in invocations if i.cold_start), len(invocations)),
        "core.speculative_plan_us_per_tick": us_per_tick(
            "speculative.begin_tick", "speculative.finish"),
        "core.terrain_request_us_per_tick": us_per_tick("terrain.request"),
        "core.offload_invocations": delta["offload_invocations"],
        "storage.op_us_per_tick": us_per_tick(
            "storage.read", "storage.write", "storage.prefetch_for_avatars", "storage.flush"),
        "storage.cache_hit_rate": ratio(cache_hits, cache_hits + cache_misses),
        "coordinator.round_self_us_per_tick": us_per_tick("coordinator.tick"),
        "coordinator.migrations_per_ktick": delta["migrations"] * 1000.0 / done,
        "coordinator.cross_shard_events_per_tick":
            delta["interest_cross_shard_events"] / done,
        "trace.unattributed_frac": ratio(us_per_tick(*unattributed) * done / 1e6, wall_s),
    })
    return result


# -- census ----------------------------------------------------------------------------


def census_pass(
    workload: Workload, seed: int, ticks: int, process_start: float
) -> dict[str, Any]:
    ticks = min(ticks, CENSUS_TICKS)
    setup, setup_s = _timed_set_up(workload, seed, process_start)
    host, driver = setup.host, setup.driver
    first_tick = setup.next_tick

    def each_tick(tick_index: int) -> None:
        driver(host, tick_index)
        host.tick()

    profile = cProfile.Profile()
    gc.collect()
    profile.enable()
    crash = _run_ticks(setup, ticks, each_tick)
    profile.disable()

    result = outcome(workload, setup, first_tick, ticks, crash)
    result["setup_s"] = setup_s
    done = setup.next_tick - first_tick
    calls = dict.fromkeys((*CENSUS_PACKAGES, "ext"), 0)
    for entry in profile.getstats():
        filename = getattr(entry.code, "co_filename", "")
        _, found, inside = filename.partition("/repro/")
        package = inside.split("/", 1)[0] if found else "ext"
        calls[package if package in calls else "ext"] += entry.callcount
    if done:
        result["metrics"] = {
            f"{package}.py_calls_per_tick": count / done for package, count in calls.items()
        }
        result["metrics"]["total.py_calls_per_tick"] = sum(calls.values()) / done
    return result


# -- probes ----------------------------------------------------------------------------


def _median_seconds(function: Callable[[], None], repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def probes_pass(seed: int) -> dict[str, Any]:
    """Fixed work on single functions, so a layer's unit cost is seen in isolation."""
    circuits = [compile_circuit(construct) for construct in build_fleet(seed, 96)]
    kilocells = sum(circuit.cell_count for circuit in circuits) / 1000.0
    stepper, steps = BatchedCircuitStepper(), 200

    def step_fleet() -> None:
        for _ in range(steps):
            stepper.step_batch(circuits)

    positions = np.random.default_rng(seed).integers(-512, 512, size=(64, 2)).tolist()

    def generate(world_type: str) -> Callable[[], None]:
        generator = make_terrain_generator(world_type, seed=0)
        return lambda: [generator.generate_chunk(ChunkPos(cx, cz)) for cx, cz in positions]

    records = 200_000

    def record_samples() -> None:
        histogram = Histogram()
        for value in range(records):
            histogram.record(value)

    filled, queries = Histogram(), 200
    filled.extend(np.random.default_rng(seed).random(10_000))

    def record_then_percentile() -> None:
        for _ in range(queries):
            filled.record(0.5)  # invalidates the memoised sorted view
            filled.percentile(99.0)

    return {
        "ticks": 0, "failed": 0, "failures": [],
        "metrics": {
            "constructs.step_batch_us_per_kcell":
                _median_seconds(step_fleet) * 1e6 / (steps * kilocells),
            "world.generate_chunk_us":
                _median_seconds(generate("default")) * 1e6 / len(positions),
            "world.generate_chunk_flat_us":
                _median_seconds(generate("flat")) * 1e6 / len(positions),
            "metrics.record_ns": _median_seconds(record_samples) * 1e9 / records,
            "metrics.percentile_us": _median_seconds(record_then_percentile) * 1e6 / queries,
        },
    }


# -- entry point -----------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--pass", dest="pass_name", choices=PASSES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--window-seconds", type=float, required=True,
                        help="window length on the reference box; sets the fixed tick count")
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    ticks = workload.ticks(args.window_seconds)
    if args.pass_name == "timed":
        # The reference replay proves a digest right; one repeat per digest does.
        result = timed_pass(
            workload, args.seed, ticks,
            replay_constructs=args.repeat == 0, process_start=PROCESS_START,
        )
    elif args.pass_name == "traced":
        result = traced_pass(workload, args.seed, ticks, args.trace_out, PROCESS_START)
    elif args.pass_name == "census":
        result = census_pass(workload, args.seed, ticks, PROCESS_START)
    else:
        result = probes_pass(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
