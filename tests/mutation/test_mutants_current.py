"""The kill table stays current: its snippets still match and each row seeds what its rule names.

Runs no mutant (``tests/mutation/run.py`` does that); a refactor that moves a
snippet fails here instead of leaving a stale row behind.
"""

from __future__ import annotations

import re
from collections import Counter

import pytest
from mutants import PACKAGE, ROOT, load_table

ROWS, PROBES = load_table()

#: the leak each rule names, as source text a row's replacement must add
RULE_MARKERS = {
    "DET001": re.compile(r"\btime\."),  # a wall or monotonic clock read
    "DET002": re.compile(r"\brandom\b"),  # ambient randomness
    "DET003": re.compile(r"\bfor \w+ in (set\(|\{)"),  # iteration in set order
    "DET005": re.compile(r"\bhash\("),  # a salted hash
}


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
    marker = RULE_MARKERS[row.rule]
    assert len(marker.findall(row.replacement)) > len(marker.findall(row.snippet))
