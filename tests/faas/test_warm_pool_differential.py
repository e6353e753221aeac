"""Generated differential: the warm pool that skips its expiry scan against one that always scans.

``WarmInstancePool._expire`` returns at once while even the least recently
used environment is inside its keep-alive.  :class:`RescanningPool` is the
pool as it was before, filtering its environments on every acquisition.
Generated sequences of acquisitions (gaps shorter and longer than the
keep-alive, invocations that outlast it, reuse that keeps an environment
alive, and invocations submitted ahead of later ones) must give the same cold
and warm sequence and the same environments after every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import given, settings, strategies as st

from repro.faas.coldstart import WarmInstancePool, _Environment

from hypothesis_profiles import examples

KEEP_ALIVE_MS = 100.0


@dataclass
class RescanningPool:
    """The warm pool as it was before: expiry filters every environment on every acquisition."""

    keep_alive_ms: float
    _environments: list[_Environment] = field(default_factory=list)

    def acquire(self, now_ms: float, duration_ms: float) -> bool:
        self._environments = [
            environment
            for environment in self._environments
            if environment.busy_until_ms > now_ms
            or (now_ms - environment.last_used_ms) <= self.keep_alive_ms
        ]
        for environment in self._environments:
            if environment.busy_until_ms <= now_ms:
                environment.busy_until_ms = now_ms + duration_ms
                environment.last_used_ms = now_ms
                return False
        self._environments.append(
            _Environment(busy_until_ms=now_ms + duration_ms, last_used_ms=now_ms)
        )
        return True


acquisitions = st.lists(
    st.tuples(
        # the gap since the previous acquisition: a burst, inside or past the keep-alive
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=2.5 * KEEP_ALIVE_MS),
            st.sampled_from([KEEP_ALIVE_MS, KEEP_ALIVE_MS + 1.0, 3.0 * KEEP_ALIVE_MS]),
        ),
        # how far ahead of the clock it is submitted (a retry after a backoff)
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=KEEP_ALIVE_MS)),
        # its duration, up to twice the keep-alive
        st.floats(min_value=0.0, max_value=2.0 * KEEP_ALIVE_MS),
    ),
    max_size=60,
)


@settings(max_examples=examples(200))
@given(sequence=acquisitions)
def test_the_pool_acquires_as_one_that_always_rescans(sequence):
    pool, reference = WarmInstancePool(keep_alive_ms=KEEP_ALIVE_MS), RescanningPool(KEEP_ALIVE_MS)
    clock = 0.0
    for gap, ahead, duration in sequence:
        clock += gap
        cold = reference.acquire(clock + ahead, duration)
        assert pool.acquire(clock + ahead, duration) is cold
        assert pool._environments == reference._environments


def test_a_pool_in_steady_use_rescans_once_per_keep_alive():
    """One environment reused every millisecond for ten keep-alives: about ten rescans, not 900."""
    pool = WarmInstancePool(keep_alive_ms=KEEP_ALIVE_MS)
    rescans, environments, colds = 0, pool._environments, 0
    for now in range(int(10 * KEEP_ALIVE_MS)):
        colds += pool.acquire(float(now), 0.5)
        rescans += pool._environments is not environments
        environments = pool._environments
    assert colds == 1
    assert rescans <= 10
