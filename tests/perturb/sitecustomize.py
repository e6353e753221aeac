"""Perturb a subprocess's clocks and ambient random state, keyed by its hash seed.

With this directory ahead of ``src`` on ``PYTHONPATH``, Python imports this
module at start-up.  Under ``PYTHONHASHSEED=k`` for k != 0 it shifts
``time.time``, ``perf_counter`` and ``monotonic`` (and their ``_ns``
variants) and ``datetime.datetime.now``/``utcnow`` by a k-dependent constant,
and seeds ``random`` and numpy's global generator with k.  A result that
leaks a clock or ambient randomness then differs between two hash seeds on
every run, not only by chance, while a clean one prints the same under every
seed.  Hash seed 0 (or unset) changes nothing.
"""

import datetime
import os
import random
import time

SEED = int(os.environ.get("PYTHONHASHSEED", "0") or 0)


def shifted(name, clock, offset):
    """``clock`` read ``offset`` later, named ``time.<name>`` like the clock it replaces.

    Tools that store a clock by its dotted name (pytest-benchmark's timer)
    then resolve it to this shifted function, which ``time.<name>`` now is.
    """

    def read():
        return clock() + offset

    read.__module__, read.__name__, read.__qualname__ = "time", name, name
    return read


if SEED:
    # About 11.6 days a step, odd down to the nanosecond: a date computed from
    # the clock moves as well as its low digits.
    shift_ns = SEED * 1_000_003_217_331_337
    for name in ("time", "perf_counter", "monotonic"):
        setattr(time, name, shifted(name, getattr(time, name), shift_ns / 1e9))
        name_ns = f"{name}_ns"
        setattr(time, name_ns, shifted(name_ns, getattr(time, name_ns), shift_ns))
    # ``now`` reads the system clock in C, past the shifted ``time.time``
    # (``today`` and ``fromtimestamp(time.time())`` already see the shift).
    shift = datetime.timedelta(microseconds=shift_ns // 1000)

    class ShiftedDatetime(datetime.datetime):
        @classmethod
        def now(cls, tz=None):
            return super().now(tz) + shift

        @classmethod
        def utcnow(cls):
            return super().utcnow() + shift

    datetime.datetime = ShiftedDatetime
    import numpy as np

    random.seed(SEED)
    np.random.seed(SEED)
