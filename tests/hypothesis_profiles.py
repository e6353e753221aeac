"""The two depths of the generated tests, chosen by ``REPRO_HYPOTHESIS_PROFILE``.

* ``tier1`` (the default): every run checks the same generated cases
  (seeded from each test), so two green runs cover identical inputs and a
  failing case reproduces; each test runs the example count it states.
* ``deep``: fresh random cases on every run, 20× the examples, and a
  reproduction blob printed with any failure — the search, not the gate.

Neither has a deadline: simulation steps vary with the host, not with the
case.  A test states its example count as ``max_examples=examples(n)``, which
keeps the tests' relative weights at either depth.
"""

from __future__ import annotations

import os

from hypothesis import settings

#: examples run per example a test states
SCALE = {"tier1": 1, "deep": 20}

PROFILE = os.environ.get("REPRO_HYPOTHESIS_PROFILE", "tier1")
if PROFILE not in SCALE:
    raise ValueError(f"REPRO_HYPOTHESIS_PROFILE={PROFILE!r}; choose one of {sorted(SCALE)}")

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile(
    "deep",
    deadline=None,
    print_blob=True,
    max_examples=SCALE["deep"] * settings.default.max_examples,
)
settings.load_profile(PROFILE)


def examples(n: int) -> int:
    """The example count to run for a test that states ``n``."""
    return n * SCALE[PROFILE]
