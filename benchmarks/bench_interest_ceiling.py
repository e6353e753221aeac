"""Benchmark: the player ceiling area-of-interest broadcast buys (extension).

Not a paper figure: the fig07a max-players search on the Opencraft baseline
without constructs, once with the paper's full fan-out broadcast and
once with ``interest_radius_chunks=4``.
Expected shape: interest management sustains at least 1.5x the full fan-out
player ceiling at the same P99 tick budget (200 -> 500 at quick scale).
"""

from repro.experiments.max_players import find_max_players


def run_ceilings(settings):
    interest = {"world_type": "flat", "interest_radius_chunks": 4}
    return (
        find_max_players("opencraft", 0, settings).max_players,
        find_max_players("opencraft", 0, settings, game_config=interest).max_players,
    )


def test_interest_lifts_the_player_ceiling(benchmark, settings, report_sink):
    # The full fan-out ceiling sits at the shared sweep's upper end; search past it.
    wide = settings.scaled(max_players=600)
    fanout, interest = benchmark.pedantic(run_ceilings, args=(wide,), rounds=1, iterations=1)
    report_sink.append(
        ("Interest ceiling: max players", f"full fan-out {fanout} -> interest {interest}")
    )
    assert fanout > 0
    assert interest >= 1.5 * fanout
