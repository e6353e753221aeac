"""Determinism linter: the repo's reproducibility contract as static rules.

``repro lint`` (see :mod:`repro.lint.engine`) walks the package source with
the stdlib :mod:`ast` and enforces four named, suppressible rules — DET001
wall clock, DET002 ambient randomness, DET003 unordered-set iteration,
DET005 address-dependent values.  Inline ``# det: allow[DET00x] reason``
pragmas (reason mandatory) and the one wall-clock quarantine
(``obs/profiling.py``) are the only ways to silence a finding.

The run-twice tests (same seed, one process or several hash seeds) catch
most violations dynamically; each rule is kept for the ones they miss, named
as rows of the kill table ``tests/mutation/mutants.toml``.
"""

from repro.lint.engine import LintReport, lint_tree, run_lint
from repro.lint.findings import Finding

__all__ = ["Finding", "LintReport", "lint_tree", "run_lint"]
