"""Pragmas, config loading, JSON schema, and the whole-tree clean gate."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.lint.config import LintConfig, load_config
from repro.lint.engine import KNOWN_RULES, META_RULE, RULE_TABLE, lint_tree
from repro.lint.findings import SCHEMA_VERSION


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


# -- config ---------------------------------------------------------------------------


def test_load_config_defaults_when_no_file_exists(tmp_path):
    config = load_config(search_from=tmp_path)
    assert config.source == "<defaults>"
    assert config.is_path_allowed("DET001", "obs/profiling.py")


def test_load_config_file_entries_extend_the_defaults(tmp_path):
    (tmp_path / "lint.toml").write_text(
        '[lint.allow]\nDET001 = ["bench/*.py"]\n',
        encoding="utf-8",
    )
    nested = tmp_path / "src" / "pkg"
    nested.mkdir(parents=True)
    config = load_config(search_from=nested)  # found by upward search
    assert config.source == str(tmp_path / "lint.toml")
    # extends, never replaces: the in-package quarantine survives
    assert config.is_path_allowed("DET001", "obs/profiling.py")
    assert config.is_path_allowed("DET001", "bench/run.py")


def test_load_config_missing_explicit_path_is_an_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(explicit_path=tmp_path / "nope.toml")


def test_repo_lint_toml_is_found_and_matches_defaults():
    package_dir = Path(repro.__file__).parent
    config = load_config(search_from=package_dir)
    assert config.source.endswith("lint.toml")
    assert config.is_path_allowed("DET001", "obs/profiling.py")


# -- JSON schema ----------------------------------------------------------------------


def test_report_json_schema(lint_snippets):
    report = lint_snippets({
        "mod.py": """
            import time

            def tick():
                a = time.time()
                b = time.perf_counter()  # det: allow[DET001] fixture suppression
                return a, b
        """
    })
    payload = report.to_dict()
    assert payload["version"] == SCHEMA_VERSION
    assert set(payload) == {"version", "target", "config", "rules", "findings", "summary"}
    assert set(payload["rules"]) == {META_RULE, *KNOWN_RULES}
    for meta in payload["rules"].values():
        assert meta.keys() == {"title", "hint"}
    assert len(payload["findings"]) == 2
    for entry in payload["findings"]:
        assert set(entry) == {
            "rule", "path", "line", "col", "message", "hint", "suppressed", "reason",
        }
    summary = payload["summary"]
    assert summary["files"] == 1
    assert summary["findings"] == 1
    assert summary["suppressed"] == 1
    assert summary["by_rule"] == {"DET001": 1}
    assert summary["clean"] is False


def test_format_text_marks_a_clean_tree(lint_snippets):
    report = lint_snippets({"mod.py": "x = 1\n"})
    text = report.format_text()
    assert "determinism contract: CLEAN" in text
    assert "0 finding(s)" in text


def test_rule_table_covers_every_known_rule():
    assert set(RULE_TABLE) == {META_RULE, *KNOWN_RULES}


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
