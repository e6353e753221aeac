"""Benchmark: Figure 9 — offload latency, invocation rate and cost.

Paper: function latency grows with the simulation length (~1459 ms mean at 200
steps); the invocation rate halves when the length doubles (1200/min at 50
steps for 50 constructs); the resulting cost is of the same order of magnitude
as one c5n.xlarge VM ($0.216/hour).
"""

from repro.experiments.fig09_latency_invocations import format_fig09, run_fig09

#: the paper reports a 1459 ms mean latency for 200-step simulations
PAPER_MEAN_LATENCY_200_STEPS_MS = 1459.0
C5N_XLARGE_USD_PER_HOUR = 0.216


def test_fig09_latency_invocations_and_cost(benchmark, settings, report_sink):
    result = benchmark.pedantic(
        run_fig09,
        args=(settings,),
        kwargs={"lengths": (50, 100, 200), "construct_count": 25},
        rounds=1,
        iterations=1,
    )
    report_sink.append(("Figure 9: offload latency / invocations / cost", format_fig09(result)))

    # Latency grows with simulation length and lands near the paper's 1.46 s
    # mean for 200-step simulations.
    mean_ms = {steps: run.latency_stats().mean for steps, run in result.runs.items()}
    assert mean_ms[50] < mean_ms[100] < mean_ms[200]
    assert 0.5 * PAPER_MEAN_LATENCY_200_STEPS_MS < mean_ms[200] < 2.0 * PAPER_MEAN_LATENCY_200_STEPS_MS

    # The invocation rate roughly halves as the length doubles.
    runs = result.runs
    ratio = runs[50].invocations_per_minute() / max(runs[100].invocations_per_minute(), 1e-9)
    assert 1.5 < ratio < 3.0

    # Cost is within an order of magnitude of one VM.
    cost = runs[100].cost_per_hour_usd()
    assert cost < 10 * C5N_XLARGE_USD_PER_HOUR
    assert cost > 0
