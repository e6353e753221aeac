"""A host is a value: a checkpoint between ticks continues the run bit for bit.

Each shape of ``checkpoint_shapes.py`` runs to its checkpoint, and then its
host and driver are pickled.  A fresh process loads them, checks the host,
and resumes; its digest must equal that of the same host run straight on in
this process.  A fresh process is what exposes state kept outside the host,
such as a module-level id counter: a run-twice probe cannot see it, because
both of its runs start from the same module state.  ``copy.deepcopy`` gets
its own check.  It copies a function by reference, so a closure left in the
host is shared with the original silently instead of failing.

A pickle is never checked in.  It is not a stable format: it holds only
under the same Python and numpy versions and the same source tree, and only
up to Python 3.13 (see the skip below).
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from checkpoint_shapes import FAULTY, SHAPES, build, check, pending, resume

pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 14),
    reason="a host's engine event counter and its FaaS request and player id sources are "
    "itertools.count objects, which Python 3.14 no longer pickles or copies",
)

HELPER = Path(__file__).resolve().parent / "checkpoint_shapes.py"
#: the kinds of engine event in flight at each shape's checkpoint.  No shape
#: holds a ``local-gen`` or a ``storage-load`` one: the queues of the
#: Opencraft shapes are empty between ticks, and a blob read lands within
#: the tick that issued it
IN_FLIGHT = {"terrain_star": {"faas-reply"}, FAULTY: {"faas-reply", "net-delay"}}


@pytest.mark.parametrize("shape", SHAPES)
def test_a_restored_host_continues_the_run(shape, tmp_path):
    # Started first, so its imports overlap the build; it waits for a path.
    with subprocess.Popen(
        [sys.executable, str(HELPER), shape],
        env={**os.environ, "PYTHONHASHSEED": "3"},
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    ) as restored:
        host, driver = build(shape)
        assert {name.split(":")[0] for _, name in pending(host)} == IN_FLIGHT.get(shape, set())
        path = tmp_path / "host.pickle"
        with open(path, "wb") as file:
            pickle.dump((host, driver), file, protocol=pickle.HIGHEST_PROTOCOL)
        restored.stdin.write(f"{path}\n")
        restored.stdin.flush()
        copied = copy.deepcopy((host, driver))
        assert check(copied[0]) == []

        straight = resume(shape, host, driver)
        assert shape != FAULTY or host.recovery_records, "the kill fell outside the resumed run"
        assert resume(shape, *copied) == straight, "a deep copy diverged from the original"
        out, _ = restored.communicate(timeout=120)
    assert restored.returncode == 0
    assert out.strip() == straight, "the host restored in a fresh process diverged"
