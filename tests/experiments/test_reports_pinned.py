"""Pinned reports: eight experiments at one tiny scale, compared byte for byte.

Each experiment's ``format_*`` report at the tiny settings below is compared
to text recorded before the scenario runs in ``repro.experiments`` were
routed through ``repro.api.run_spec``.  Every sweep, pass rule and
determinism check feeds these tables, so a diff here means an experiment's
results moved, not just its plumbing.  Re-record a pin only with a stated
reason.  Runs in about 4 s on a 2-core box.
"""

import pytest

from repro.experiments.availability import (
    AvailabilityCase,
    format_availability,
    run_availability,
)
from repro.experiments.cluster_scalability import (
    format_cluster_scalability,
    run_cluster_scalability,
)
from repro.experiments.fig01_headline import format_fig01, run_fig01
from repro.experiments.fig07_scalability import (
    format_fig07a,
    format_fig07b,
    run_fig07a,
    run_fig07b,
)
from repro.experiments.fig12_terrain_scalability import (
    format_fig12a,
    format_fig12b,
    run_fig12a,
    run_fig12b,
)
from repro.experiments.flash_crowd import format_flash_crowd, run_flash_crowd
from repro.experiments.harness import ExperimentSettings

TINY = ExperimentSettings(
    duration_s=2.0, player_step=20, max_players=40, repetitions=1, warmup_s=1.0
)

#: one shard kill whose replacement comes up inside the tiny run
KILL_AND_RESPAWN = AvailabilityCase(players=8, constructs=4, respawn_after_s=0.25)

REPORTS = {
    "fig01": lambda: format_fig01(run_fig01(TINY)),
    "fig07a": lambda: format_fig07a(
        run_fig07a(TINY.scaled(max_players=20), construct_counts=(200,))
    ),
    "fig07b": lambda: format_fig07b(run_fig07b(TINY, player_counts=(20,))),
    "fig12a": lambda: format_fig12a(run_fig12a(TINY, players=3, join_interval_s=1.0)),
    "fig12b": lambda: format_fig12b(
        run_fig12b(TINY, players=3, join_interval_s=1.0, duration_s=4.0)
    ),
    "cluster": lambda: format_cluster_scalability(
        run_cluster_scalability(TINY, shard_counts=(1, 2))
    ),
    "flash-crowd": lambda: format_flash_crowd(run_flash_crowd(TINY)),
    "availability": lambda: format_availability(
        run_availability(TINY, cases=(KILL_AND_RESPAWN,))
    ),
}

PINNED = {
    "fig01": (
        "game       paper max players  measured max players\n"
        "---------  -----------------  --------------------\n"
        "opencraft  10                 0                   \n"
        "minecraft  90                 40                  \n"
        "servo      150                40                  "
    ),
    "fig07a": (
        "game       constructs  paper max players  measured max players\n"
        "---------  ----------  -----------------  --------------------\n"
        "minecraft  200         0                  0                   \n"
        "opencraft  200         0                  0                   \n"
        "servo      200         120                20                  "
    ),
    "fig07b": (
        "game       players  p5 ms  median ms  p95 ms  max ms\n"
        "---------  -------  -----  ---------  ------  ------\n"
        "minecraft  20       11.0   55.8       60.7    62.1  \n"
        "opencraft  20       6.6    53.5       115.7   116.7 \n"
        "servo      20       21.9   22.8       24.1    24.4  "
    ),
    # Re-recorded when a chunk waiting for integration stopped being
    # requested again.  Each flip is one 2.5 s p95 window: opencraft S3's at
    # 20-22.5 s now holds 5 ticks over 50 ms (p95 34.6 -> 52.0 ms), servo S8's
    # at 12.5-15 s holds 1 (p95 53.4 -> 33.7 ms), and neither run crosses
    # earlier.
    "fig12a": (
        "game       workload  supported players  players offered\n"
        "---------  --------  -----------------  ---------------\n"
        "opencraft  S3        2                  3              \n"
        "opencraft  S8        2                  3              \n"
        "servo      S3        3                  3              \n"
        "servo      S8        3                  3              "
    ),
    "fig12b": (
        "game       min  median  max  repetitions\n"
        "---------  ---  ------  ---  -----------\n"
        "opencraft  3    3       3    1          \n"
        "servo      3    3       3    1          "
    ),
    "cluster": (
        "Aggregate supported players, servo-cluster (0 constructs, budget 50 ms per shard)\n"
        "shards  max players  vs 1 shard  worst shard P99 (ms)  migrations  migration P50 (ms)\n"
        "------  -----------  ----------  --------------------  ----------  ------------------\n"
        "1       40           1.00x       12.7                  0           0.0               \n"
        "2       80           2.00x       15.3                  0           0.0               "
    ),
    "flash-crowd": (
        "Flash crowd at spawn (whole population converges on one zone; seed 42)\n"
        "configuration                      tick P99 (ms)  over budget  updates sent  entries  flushes  staleness max  bound held  deterministic\n"
        "---------------------------------  -------------  -----------  ------------  -------  -------  -------------  ----------  -------------\n"
        "opencraft full fan-out             11.9           0.0%         2400          -        -        -              -           yes          \n"
        "opencraft interest r4              6.0            0.0%         2400          2439     2400     0              yes         yes          \n"
        "servo full fan-out                 12.4           0.0%         2400          -        -        -              -           yes          \n"
        "servo interest r4                  6.3            0.0%         2400          2439     2400     0              yes         yes          \n"
        "opencraft-cluster s2 full fan-out  108.6          5.3%         2320          -        -        -              -           yes          \n"
        "opencraft-cluster s2 interest r4   105.3          5.3%         2320          2357     2320     0              yes         yes          "
    ),
    "availability": (
        "Shard-failure recovery (shard killed mid-measurement, respawned after its outage; seed 42)\n"
        "configuration            kills  MTTR (rounds)  sessions recovered  recovery %  msgs lost  player-ticks lost  constructs  round P99 (ms)  deterministic\n"
        "-----------------------  -----  -------------  ------------------  ----------  ---------  -----------------  ----------  --------------  -------------\n"
        "servo-cluster s2 kill#0  1      5              5/5                 100%        30         25                 4           5.8             yes          "
    ),
}


@pytest.mark.parametrize("experiment_id", sorted(REPORTS))
def test_report_matches_its_pin(experiment_id):
    assert REPORTS[experiment_id]() == PINNED[experiment_id]
