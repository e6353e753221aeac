"""The repository's benchmark: five workloads, measured end to end and by layer.

``python3 bench/run.py`` is the one command (see ``bench/README.md``); the
metric and workload names are defined in ``BENCHMARK.json`` at the repo root.
"""

#: the passes of one workload, in the order they run (see ``bench/worker.py``)
PASSES = ("timed", "traced", "census", "probes")
