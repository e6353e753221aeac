"""A mutated run spec or fault plan decodes, or is a ``ValueError``; nothing else escapes.

The inputs are the checked-in ``examples/specs/*.json`` and their fault
plans, plus one plan that sets every part of a :class:`FaultPlan`.  A mutant
replaces one to three values anywhere in the document with ``None``, a bool,
NaN, an infinity, a huge integer, a string, a list or a mapping, or deletes a
key or a list entry.  ``RunSpec.from_dict`` and ``FaultPlan.from_dict`` are
the boundary between a user's file and the program, so each must return a
value or raise its documented error.

``DegradationPolicy`` once compared ``budget_ms``, and ``RetryPolicy``
``backoff_multiplier``, with a bound before checking it was a number, so a
plan with ``None``, a string or a list there raised ``TypeError``.  The
bounds also let NaN through (every comparison with NaN is false), so a plan
could schedule a shard kill at NaN ms that never fires.
"""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunSpec
from repro.faults import FaultPlan

from hypothesis_profiles import examples

SPECS = [
    json.loads(path.read_text())
    for path in sorted((Path(__file__).resolve().parents[2] / "examples" / "specs").glob("*.json"))
]
#: every part of a fault plan, each field set
FULL_PLAN = {
    "faas": {
        "failure_rate": 0.1, "throttle_rate": 0.05, "timeout_rate": 0.02,
        "retry": {"max_attempts": 4, "backoff_base_ms": 25.0, "backoff_multiplier": 3.0,
                  "jitter_ms": 10.0},
    },
    "net": {"drop_rate": 0.03, "duplicate_rate": 0.02, "delay_rate": 0.1,
            "delay_ms_min": 10.0, "delay_ms_max": 100.0},
    "shards": [{"at_ms": 5000.0, "shard": 1, "respawn_after_ms": 1500.0}],
    "degradation": {"budget_ms": 60.0, "shed_fraction": 0.25},
}
PLANS = [spec["faults"] for spec in SPECS if "faults" in spec] + [FULL_PLAN]
DELETE = object()

replacements = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 30, -(10 ** 30), 2 ** 63]),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
    st.just(DELETE),
)


@pytest.mark.parametrize("value", [None, "60", [60.0], {"ms": 60.0}])
@pytest.mark.parametrize("part, knob", [
    ("degradation", "budget_ms"),
    ("faas", "retry.backoff_multiplier"),
])
def test_a_compared_fault_knob_of_the_wrong_type_is_a_value_error(part, knob, value):
    plan = copy.deepcopy(FULL_PLAN)
    holder = plan[part]
    *parents, name = knob.split(".")
    for key in parents:
        holder = holder[key]
    holder[name] = value
    with pytest.raises(ValueError, match=name):
        FaultPlan.from_dict(plan)


@pytest.mark.parametrize("part, knob", [
    ("degradation", "budget_ms"),
    ("faas", "retry.backoff_multiplier"),
    ("faas", "retry.backoff_base_ms"),
    ("net", "delay_ms_min"),
    ("shards", "0.at_ms"),
])
def test_a_nan_fault_knob_is_a_value_error(part, knob):
    plan = copy.deepcopy(FULL_PLAN)
    holder = plan[part]
    *parents, name = knob.split(".")
    for key in parents:
        holder = holder[int(key) if key.isdigit() else key]
    holder[name] = math.nan
    with pytest.raises(ValueError, match=name):
        FaultPlan.from_dict(plan)


def _paths(value, path=()):
    """Every path below ``value``'s root: tuples of mapping keys and list indices."""
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(document, data):
    """A deep copy of ``document`` with one to three of its values replaced or deleted."""
    mutant = copy.deepcopy(document)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(mutant))
        if not paths:
            break
        *parents, last = data.draw(st.sampled_from(paths))
        holder = mutant
        for key in parents:
            holder = holder[key]
        replacement = data.draw(replacements)
        if replacement is DELETE:
            del holder[last]
        else:
            holder[last] = replacement
    return mutant


@settings(max_examples=examples(150))
@given(spec=st.sampled_from(SPECS), data=st.data())
def test_a_mutated_run_spec_decodes_or_is_a_value_error(spec, data):
    try:
        RunSpec.from_dict(_mutate(spec, data))
    except ValueError:
        pass


@settings(max_examples=examples(150))
@given(plan=st.sampled_from(PLANS), data=st.data())
def test_a_mutated_fault_plan_decodes_or_is_a_value_error(plan, data):
    try:
        FaultPlan.from_dict(_mutate(plan, data))
    except ValueError:
        pass
