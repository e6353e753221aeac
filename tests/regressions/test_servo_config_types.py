"""A spec's ``servo_config`` knob of the wrong type is a ``ValueError``, not a ``TypeError``.

``ServoConfig`` once compared ``steps_per_invocation`` and ``tick_lead``
with a bound before checking they were integers, so ``RunSpec.from_dict``
raised ``TypeError`` for a list, a string, ``None`` or a mapping there.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.api import RunSpec

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "examples" / "specs" / "servo_quick.json").read_text()
)
WRONG = {"list": [100], "string": "100", "none": None, "mapping": {"steps": 100}, "bool": True}


@pytest.mark.parametrize("knob", ["steps_per_invocation", "tick_lead"])
@pytest.mark.parametrize("value", WRONG.values(), ids=WRONG.keys())
def test_a_servo_config_knob_of_the_wrong_type_is_a_value_error(knob, value):
    data = copy.deepcopy(SPEC)
    data["host"]["servo_config"][knob] = value
    with pytest.raises(ValueError, match=knob):
        RunSpec.from_dict(data)
