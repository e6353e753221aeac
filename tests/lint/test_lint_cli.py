"""The ``repro lint`` subcommand: it lints the installed package, prints, exits 0 or 1."""

from __future__ import annotations

import textwrap

from repro.api.cli import main
from repro.lint.engine import run_lint


def test_lint_default_target_is_clean_and_exits_zero(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "determinism contract: CLEAN" in out
    assert "0 finding(s)" in out


def test_lint_violations_exit_one_with_findings_printed(tmp_path, capsys):
    package_dir = tmp_path / "pkg"
    package_dir.mkdir()
    (package_dir / "mod.py").write_text(
        textwrap.dedent(
            """
            import time

            def tick():
                return time.time()
            """
        ),
        encoding="utf-8",
    )
    assert run_lint(package_dir) == 1
    out = capsys.readouterr().out
    assert "DET001" in out
    assert "time.time" in out
