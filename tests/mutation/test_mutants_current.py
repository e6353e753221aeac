"""The kill table stays current: its snippets still match and its rules still flag them.

Runs no mutant (``tests/mutation/run.py`` does that); a refactor that moves a
snippet fails here instead of leaving a stale row behind.
"""

from __future__ import annotations

from collections import Counter

import pytest
from mutants import PACKAGE, ROOT, flags, live_rules, load_table

ROWS, PROBES = load_table()


def test_the_table_has_three_rows_per_rule_and_names_real_probes_and_tests():
    assert len({row.id for row in ROWS}) == len(ROWS)
    assert min(Counter(row.rule for row in ROWS).values()) >= 3
    for row in ROWS:
        assert row.probe in PROBES and row.probe != "prelude", row.id
        for test_id in row.oracle + row.pin:
            assert (ROOT / test_id.split("::")[0]).is_file(), f"{row.id}: {test_id}"


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_each_row_applies_once_and_its_rule_flags_it(row):
    source = (ROOT / PACKAGE / row.file).read_text(encoding="utf-8")
    assert source.count(row.snippet) == 1
    if row.rule in live_rules():
        assert flags(row, source)
