"""The numpy behaviour array-stepped bots stand on, pinned by name.

``WalkerArrays`` replaces a run of scalar bots by one batched draw and
elementwise arithmetic.  That is exact only while numpy keeps these
promises; a release that breaks one should fail here, not as a moved
``sim_digest`` somewhere else.
"""

import math

import numpy as np


def test_a_batched_uniform_draw_is_the_scalar_draws_and_leaves_the_stream_where_they_do():
    low, high = 0.0, 2.0 * math.pi
    scalar, batched = np.random.default_rng(42), np.random.default_rng(42)
    expected = [scalar.uniform(low, high) for _ in range(1000)]
    drawn = [
        value
        for size in (150, 150, 1, 0, 699)
        for value in batched.uniform(low, high, size=size).tolist()
    ]
    assert drawn == expected
    assert batched.bit_generator.state == scalar.bit_generator.state


def test_elementwise_rounding_clamping_and_floor_division_match_python_floats():
    rng = np.random.default_rng(7)
    values = np.concatenate((rng.uniform(-300.0, 300.0, 2000), np.arange(-50.5, 50.5)))
    others = rng.uniform(0.05, 300.0, values.size)
    pairs = list(zip(values.tolist(), others.tolist()))
    assert np.rint(values).astype(np.int64).tolist() == [int(round(v)) for v, _ in pairs]
    assert np.minimum(np.maximum(values, -others), others).tolist() == [
        min(max(v, -o), o) for v, o in pairs
    ]
    assert (np.abs(values) // others).tolist() == [abs(v) // o for v, o in pairs]
