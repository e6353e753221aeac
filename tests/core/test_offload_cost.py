"""Offload cost guard: merging and memo hits move state vectors, not position-keyed objects.

Object-construction counts under ``sys.setprofile`` repeat exactly on any
machine, so the bounds cannot flake.  The wire format this guards against
built one ``BlockPos`` per cell per stored snapshot on *every* invocation,
memo hit or miss, and re-keyed each snapshot by position again to merge it;
rows in sorted cell order need neither.
"""

from __future__ import annotations

import sys

import pytest

from repro.constructs.library import build_sized_construct
from repro.constructs.state import ConstructState
from repro.core import ServoConfig
from repro.core.offload import SC_SIMULATION_FUNCTION, OffloadRequest, SimulationHandler
from repro.core.speculative import SpeculativeConstructBackend
from repro.faas import AWS_LAMBDA, FaasPlatform, FunctionDefinition
from repro.world.coords import BlockPos


def count_constructions(action) -> dict:
    """Run ``action`` and count the ``BlockPos`` / ``ConstructState`` objects it builds."""
    counts = {"BlockPos": 0, "ConstructState": 0}

    def on_event(frame, event, _argument):
        if event != "call":
            return
        if frame.f_code.co_name == "__init__":  # a dataclass
            kind = type(frame.f_locals.get("self")).__name__
        else:  # a named tuple is built by its generated ``__new__(_cls, ...)``
            kind = getattr(frame.f_locals.get("_cls"), "__name__", None)
        if kind in counts:
            counts[kind] += 1

    sys.setprofile(on_event)
    try:
        action()
    finally:
        sys.setprofile(None)
    return counts


def test_the_counter_sees_both_kinds():
    counts = count_constructions(lambda: ConstructState(step=1, states={BlockPos(1, 2, 3): 4}))
    assert counts == {"BlockPos": 1, "ConstructState": 1}


def test_a_tick_of_merges_builds_no_position_keyed_objects(engine):
    platform = FaasPlatform(engine, provider=AWS_LAMBDA)
    platform.register(
        FunctionDefinition(
            name=SC_SIMULATION_FUNCTION, handler=SimulationHandler(), memory_mb=1769
        )
    )
    backend = SpeculativeConstructBackend(
        engine, platform, ServoConfig(steps_per_invocation=100, tick_lead=0)
    )
    constructs = [
        build_sized_construct(60, origin=BlockPos(index * 40 - 200, 64, -index * 24), looping=False)
        for index in range(10)
    ]
    for construct in constructs:
        backend.register_construct(construct)

    merge_only_ticks = 0
    for tick in range(260):
        invocations_before = engine.metrics.counter("offload_invocations")
        reports = []
        counts = count_constructions(lambda: reports.append(backend.tick(tick)))
        engine.advance_by(50.0)
        issued = engine.metrics.counter("offload_invocations") - invocations_before
        if reports[0].merged_speculative == len(constructs) and issued == 0:
            merge_only_ticks += 1
            assert counts == {"BlockPos": 0, "ConstructState": 0}, (tick, counts)
        # Issuing a request may build the constant handful behind ``anchor()``
        # (plus, on a memo miss, the rebuilt construct's cells), never a
        # ``ConstructState``.
        assert counts["ConstructState"] == 0, (tick, counts)
    assert merge_only_ticks >= 50


@pytest.mark.parametrize("blocks", [30, 300])
def test_a_memo_hit_builds_a_constant_handful_of_positions(blocks):
    handler = SimulationHandler()
    first = build_sized_construct(blocks, origin=BlockPos(0, 64, 0), looping=False)
    twin = build_sized_construct(blocks, origin=BlockPos(-333, 12, 4096), looping=False)
    miss = count_constructions(
        lambda: handler(OffloadRequest.from_construct(first, steps=20, detect_loops=False))
    )
    assert miss["BlockPos"] >= blocks  # the miss rebuilds the construct, once

    replies = []
    hit = count_constructions(
        lambda: replies.append(
            handler(OffloadRequest.from_construct(twin, steps=20, detect_loops=False)).value
        )
    )
    assert replies[0].sequence.explicit_length == 20
    # Whatever the construct's size or the reply's length: the two corners of
    # ``bounding_box()`` behind ``anchor()``, nothing per cell or per snapshot.
    assert hit == {"BlockPos": 2, "ConstructState": 0}
