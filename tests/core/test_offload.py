"""Tests for offload requests/replies and the remote simulation handler."""

from dataclasses import replace

import pytest

from repro.constructs.library import (
    build_clock,
    build_counter_farm,
    build_sized_construct,
    build_wire_line,
)
from repro.constructs.compiled import compile_circuit
from construct_helpers import clone_construct, toggle_lever
from repro.core import offload
from repro.core.offload import (
    OffloadReply,
    OffloadRequest,
    SimulationHandler,
    _build_canonical_construct,
    simulation_work_ms,
)
from repro.world.coords import BlockPos


def test_request_captures_construct_state_and_timestamp():
    construct = build_clock(period=4)
    construct.construct_id = 7
    construct.player_modify(construct.positions[0])
    request = OffloadRequest.from_construct(construct, steps=20)
    assert request.construct_id == construct.construct_id
    assert request.steps == 20
    assert request.start_step == construct.step
    assert request.timestamp == construct.modification_counter == 1
    assert len(request.structure) == construct.block_count
    assert request.states == tuple(cell.state for cell in construct.cells)


def test_request_rebuild_matches_original():
    """What the handler rebuilds from a request is the original construct, moved to the origin."""
    construct = build_clock(period=6)
    for _ in range(5):
        compile_circuit(construct).step()
    request = OffloadRequest.from_construct(construct, steps=10)
    rebuilt = _build_canonical_construct(request)
    assert rebuilt.block_count == construct.block_count
    assert rebuilt.step == construct.step
    # Same shape and state, cell for cell in sorted order — only the anchor moved.
    assert rebuilt.anchor() == BlockPos(0, 0, 0)
    for own, original in zip(rebuilt.cells, construct.cells, strict=True):
        assert own.component is original.component
        assert own.properties == original.properties
        assert own.state == original.state
    # The rebuilt construct steps exactly like the original.
    for _ in range(12):
        compile_circuit(rebuilt).step()
        compile_circuit(construct).step()
        assert [c.state for c in rebuilt.cells] == [c.state for c in construct.cells]


def test_a_request_whose_states_do_not_match_its_structure_is_rejected():
    request = OffloadRequest.from_construct(build_clock(period=6), steps=10)
    short = replace(request, states=request.states[:-1])
    with pytest.raises(ValueError):
        SimulationHandler()(short)


def test_request_anchor_and_relative_states_are_translation_invariant():
    """A request is anchor-relative throughout: moving the construct changes no field but its id."""
    at_origin = build_clock(period=4, origin=BlockPos(0, 64, 0))
    translated = build_clock(period=4, origin=BlockPos(320, 70, -48))
    at_origin.construct_id, translated.construct_id = 1, 2
    for _ in range(3):
        compile_circuit(at_origin).step()
        compile_circuit(translated).step()
    request_a = OffloadRequest.from_construct(at_origin, steps=10)
    request_b = OffloadRequest.from_construct(translated, steps=10)
    assert at_origin.anchor() != translated.anchor()
    # Nothing on the wire mentions where the construct stands.
    assert request_a.structure == request_b.structure
    assert request_a.states == request_b.states
    assert request_a.cache_key() == request_b.cache_key()
    assert request_b != request_a
    assert replace(request_b, construct_id=request_a.construct_id) == request_a
    # ... but state, start step, length and loop detection all key the memo.
    compile_circuit(translated).step()
    assert OffloadRequest.from_construct(translated, steps=10).cache_key() != request_a.cache_key()
    assert replace(request_a, steps=11).cache_key() != request_a.cache_key()
    assert replace(request_a, detect_loops=False).cache_key() != request_a.cache_key()


def test_simulation_work_grows_with_size_and_steps():
    assert simulation_work_ms(484, 100) > simulation_work_ms(252, 100)
    assert simulation_work_ms(252, 200) > simulation_work_ms(252, 100)
    with pytest.raises(ValueError):
        simulation_work_ms(0, 10)
    with pytest.raises(ValueError):
        simulation_work_ms(10, -1)


def test_handler_reply_matches_local_simulation():
    construct = build_counter_farm(hoppers=3)
    handler = SimulationHandler()
    request = OffloadRequest.from_construct(construct, steps=25, detect_loops=False)
    output = handler(request)
    reply = output.value
    assert isinstance(reply, OffloadReply)
    assert reply.sequence.explicit_length == 25
    assert not reply.sequence.is_looping

    # The reply's states must equal what the server would compute locally.
    local = clone_construct(construct)
    for step in range(1, 26):
        compile_circuit(local).step()
        assert reply.sequence.row_at(step).tolist() == [cell.state for cell in local.cells]
    # The request did not touch the server-side construct.
    assert construct.step == 0


def test_handler_detects_loops_and_stops_early():
    construct = build_clock(period=4, lamps=1)
    handler = SimulationHandler()
    request = OffloadRequest.from_construct(construct, steps=200, detect_loops=True)
    output = handler(request)
    reply = output.value
    assert reply.sequence.is_looping
    assert reply.sequence.explicit_length < 200
    assert output.work_ms_single_vcpu < simulation_work_ms(construct.block_count, 200)
    # The looping sequence still matches direct simulation far into the future.
    local = clone_construct(construct)
    for step in range(1, 60):
        compile_circuit(local).step()
        assert reply.sequence.row_at(step).tolist() == [cell.state for cell in local.cells]


def test_handler_echoes_timestamp():
    construct = build_clock(period=4)
    construct.player_modify(construct.positions[0])
    construct.player_modify(construct.positions[0])
    handler = SimulationHandler()
    reply = handler(OffloadRequest.from_construct(construct, steps=5)).value
    assert reply.timestamp == 2


def test_handler_memoises_identical_requests_across_translations():
    handler = SimulationHandler()
    first = build_sized_construct(60, origin=BlockPos(0, 64, 0))
    second = build_sized_construct(60, origin=BlockPos(512, 64, 512))
    reply_a = handler(OffloadRequest.from_construct(first, steps=30)).value
    reply_b = handler(OffloadRequest.from_construct(second, steps=30)).value
    # Same dynamics: the memo hands both constructs the very same matrix, and
    # each reads it against its own cells.
    assert reply_a.sequence.states is reply_b.sequence.states
    assert not reply_a.sequence.states.flags.writeable
    for _ in range(5):
        compile_circuit(second).step()
    assert reply_b.sequence.row_at(5).tolist() == [cell.state for cell in second.cells]


def test_handler_memo_keys_on_the_state_not_only_the_shape_and_step():
    handler = SimulationHandler()
    off = build_wire_line(3, origin=BlockPos(0, 64, 0), powered=False)
    on = build_wire_line(3, origin=BlockPos(0, 64, 0), powered=False)
    toggle_lever(on, on.positions[0])
    request_off = OffloadRequest.from_construct(off, steps=8)
    request_on = OffloadRequest.from_construct(on, steps=8)
    assert request_off.structure == request_on.structure
    assert request_off.start_step == request_on.start_step
    assert request_off.cache_key() != request_on.cache_key()
    dark = handler(request_off).value.sequence
    lit = handler(request_on).value.sequence
    assert dark.row_at(8)[-1] == 0 and lit.row_at(8)[-1] == 1  # the lamp


def test_handler_memo_evicts_its_oldest_entry_first(monkeypatch):
    monkeypatch.setattr(offload, "CACHE_CAPACITY", 2)
    handler = SimulationHandler()
    requests = [
        OffloadRequest.from_construct(build_counter_farm(hoppers=n), steps=4) for n in (1, 2, 3)
    ]
    first = [handler(request).value.sequence for request in requests]
    # Capacity 2: the third request pushed the first one out, the other two hit.
    assert handler(requests[1]).value.sequence is first[1]
    assert handler(requests[2]).value.sequence is first[2]
    assert handler(requests[0]).value.sequence is not first[0]


def test_handler_rejects_non_request_payloads():
    handler = SimulationHandler()
    with pytest.raises(TypeError):
        handler({"not": "a request"})


def test_handler_work_reflects_requested_steps_for_aperiodic_constructs():
    handler = SimulationHandler()
    construct = build_counter_farm(hoppers=2)
    short = handler(OffloadRequest.from_construct(construct, steps=10, detect_loops=True))
    long = handler(OffloadRequest.from_construct(construct, steps=50, detect_loops=True))
    assert long.work_ms_single_vcpu > short.work_ms_single_vcpu
