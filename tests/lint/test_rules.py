"""One minimal positive and negative fixture per determinism rule."""

from __future__ import annotations

from repro.lint.engine import LintReport


def rules_of(report: LintReport, suppressed: bool = False) -> list[str]:
    """The rule ids of a report's (un)suppressed findings, in report order."""
    findings = report.suppressed if suppressed else report.unsuppressed
    return [finding.rule for finding in findings]


# -- DET001: wall clock ---------------------------------------------------------------


def test_det001_flags_wall_clock_reads(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            import time
            from time import perf_counter
            from datetime import datetime

            def tick():
                a = time.time()
                b = perf_counter()
                c = datetime.now()
                return a, b, c
        """
    })
    assert rules_of(report) == ["DET001", "DET001", "DET001"]
    assert "time.time()" in report.unsuppressed[0].message


def test_det001_ignores_virtual_clocks_and_unrelated_attributes(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            def tick(engine, record):
                record.time = engine.now_ms  # attribute named 'time' is not the module
                return engine.clock.advance(50.0)
        """
    })
    assert report.clean


def test_det001_quarantine_allowlist_suppresses_with_reason(lint_snippets):
    source = """
        import time

        def section():
            return time.perf_counter()
    """
    report = lint_snippets({"obs/profiling.py": source, "obs/export.py": source})
    # The profiler's file alone is quarantined, and only for DET001.
    assert [finding.path for finding in report.unsuppressed] == ["obs/export.py"]
    assert rules_of(report, suppressed=True) == ["DET001"]
    assert "quarantine" in report.suppressed[0].reason


# -- DET002: ambient randomness -------------------------------------------------------


def test_det002_flags_ambient_randomness(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            import os
            import random
            import numpy as np

            def roll():
                a = random.randint(1, 6)
                b = np.random.rand(3)
                c = np.random.default_rng()  # unseeded: seeds itself from the OS
                d = os.urandom(8)
                return a, b, c, d
        """
    })
    assert rules_of(report) == ["DET002"] * 4
    assert "unseeded" in report.unsuppressed[2].message


def test_det002_allows_named_streams_and_seeded_construction(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            import numpy as np

            def sample(engine, seed: int):
                rng = engine.rng("storage")  # the named-stream surface
                explicit = np.random.default_rng(seed)
                return rng.normal(), explicit.normal()
        """
    })
    assert report.clean


# -- DET003: unordered-set iteration --------------------------------------------------


def test_det003_flags_set_iteration_into_ordered_sinks(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            def emit(items: set[int], sink):
                out = []
                for item in items:
                    out.append(item)
                listed = [item * 2 for item in items]
                joined = ",".join(str(item) for item in items)
                return out, listed, joined
        """
    })
    assert rules_of(report) == ["DET003"] * 3


def test_det003_accepts_sorted_and_order_insensitive_consumers(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            def emit(items: set[int]):
                out = []
                for item in sorted(items):
                    out.append(item)
                total = sum(item for item in items)
                biggest = max(item for item in items)
                a_set = {item * 2 for item in items}
                return out, total, biggest, a_set
        """
    })
    assert report.clean


def test_det003_tracks_assignments_attributes_and_set_algebra(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            class Tracker:
                def __init__(self):
                    self._pending = set()

                def drain(self, done: frozenset):
                    for item in self._pending - done:
                        yield item

            def local_flow():
                seen = set()
                return [item for item in seen]
        """
    })
    assert rules_of(report) == ["DET003", "DET003"]
    assert "self._pending - done" in report.unsuppressed[0].message


# -- DET005: address dependence -------------------------------------------------------


def test_det005_flags_id_hash_and_key_id(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            def keys(obj, values):
                a = id(obj)
                b = hash(obj)
                c = sorted(values, key=id)
                return a, b, c
        """
    })
    assert rules_of(report) == ["DET005"] * 3


def test_det005_accepts_content_digests(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            import hashlib

            def digest(payload: bytes) -> int:
                raw = hashlib.sha256(payload).digest()
                return int.from_bytes(raw[:8], "little")
        """
    })
    assert report.clean
