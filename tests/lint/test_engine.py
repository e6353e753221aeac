"""Pragmas, the text report, and the whole-tree clean gate."""

from __future__ import annotations

from pathlib import Path

import repro
from repro.lint.engine import KNOWN_RULES, META_RULE, lint_tree
from repro.lint.rules import MODULE_RULES


# -- pragmas --------------------------------------------------------------------------


def test_pragma_with_reason_suppresses_and_carries_the_reason(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            import time

            def tick():
                return time.time()  # det: allow[DET001] startup banner only, never fed to results
        """
    })
    assert report.clean
    (finding,) = report.suppressed
    assert finding.rule == "DET001"
    assert finding.reason == "startup banner only, never fed to results"


def test_pragma_without_reason_is_rejected_and_does_not_suppress(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            import time

            def tick():
                return time.time()  # det: allow[DET001]
        """
    })
    rules = sorted(finding.rule for finding in report.unsuppressed)
    assert rules == [META_RULE, "DET001"]
    assert not report.suppressed
    meta = next(f for f in report.unsuppressed if f.rule == META_RULE)
    assert "mandatory reason" in meta.message


def test_pragma_with_unknown_rule_id_raises_a_meta_finding(lint_snippets):
    # DET004 was deleted with the process pool: a leftover pragma naming it
    # is reported like any other unknown id, not silently accepted.
    for rule_id in ("DET999", "DET004"):
        report = lint_snippets({
            "mod.py": f"""
                def tick():
                    return 0  # det: allow[{rule_id}] no such rule
            """
        })
        (finding,) = report.unsuppressed
        assert finding.rule == META_RULE
        assert rule_id in finding.message


def test_pragma_for_a_different_rule_does_not_suppress(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            import time

            def tick():
                return time.time()  # det: allow[DET002] wrong rule entirely
        """
    })
    assert [f.rule for f in report.unsuppressed] == ["DET001"]


def test_pragma_can_cover_multiple_rules(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            import time
            import random

            def tick():
                return time.time() + random.random()  # det: allow[DET001, DET002] fixture exercising both rules at once
        """
    })
    assert report.clean
    assert sorted(f.rule for f in report.suppressed) == ["DET001", "DET002"]


def test_unparsable_file_is_reported_not_skipped_silently(lint_snippets):
    report = lint_snippets({"mod.py": "def broken(:\n"})
    (finding,) = report.unsuppressed
    assert finding.rule == META_RULE
    assert "does not parse" in finding.message


# -- the text report ------------------------------------------------------------------


def test_format_text_marks_a_clean_tree(lint_snippets):
    report = lint_snippets({"mod.py": "x = 1\n"})
    text = report.format_text()
    assert "determinism contract: CLEAN" in text
    assert "0 finding(s)" in text


def test_rule_table_covers_every_known_rule():
    # The kill table (tests/mutation/mutants.toml) justifies exactly these.
    assert KNOWN_RULES == {"DET001", "DET002", "DET003", "DET005"}
    assert all(rule.hint and rule.__doc__ for rule in MODULE_RULES)


# -- the tier-1 gate: the shipped tree must be clean ----------------------------------


def test_repro_package_tree_is_lint_clean():
    """The determinism contract over ``src/repro`` itself: zero unsuppressed
    findings, and every suppression carries a written reason."""
    package_dir = Path(repro.__file__).parent
    report = lint_tree(package_dir)
    assert report.clean, report.format_text()
    assert report.files > 100  # the whole package, not a subset
    for finding in report.suppressed:
        assert finding.reason.strip(), f"reasonless suppression: {finding.format()}"
