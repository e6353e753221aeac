"""Construct offloading: requests, replies and the remote simulation function.

An offload request carries the construct's structure and current state, the
number of steps to simulate and the logical timestamp of the last player
modification.  The function simulates the requested steps (optionally
compressing a detected loop) and echoes the timestamp so the server can
discard replies that were computed from a state the player has since modified
(Section III-C).

One state representation travels in both directions: cell values in the
construct's sorted cell order (``SimulatedConstruct.cells``).  The request's
``structure`` is anchor-relative and in that order, so neither the request
nor the reply mentions a world position, and one reply serves every
structurally identical construct wherever it stands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.constructs.circuit import Cell, SimulatedConstruct
from repro.constructs.compiled import compile_circuit
from repro.constructs.components import ComponentType
from repro.constructs.loop_detection import CompressedStateSequence, compress_trace
from repro.faas.function import FunctionOutput
from repro.world.coords import BlockPos

#: name under which the construct-simulation function is deployed
SC_SIMULATION_FUNCTION = "servo-simulate-construct"

# Calibration of the per-step compute cost inside the function, fitted to the
# Section IV-G measurements: a 252-block construct simulates ~488 steps/s and a
# 484-block construct ~105 steps/s on one Lambda vCPU, i.e. the per-step time
# grows roughly as blocks^2.35 (block interactions dominate).
_PER_STEP_COEFFICIENT_MS = 4.7e-6
_PER_STEP_EXPONENT = 2.35
#: fixed in-function overhead per invocation (runtime, deserialisation), ms
_INVOCATION_OVERHEAD_WORK_MS = 40.0
#: requests one simulation handler memoises before evicting the oldest
CACHE_CAPACITY = 512


def simulation_work_ms(block_count: int, steps: int) -> float:
    """Single-vCPU work (ms) of simulating ``steps`` steps of a construct."""
    if block_count < 1:
        raise ValueError("block_count must be positive")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    per_step = _PER_STEP_COEFFICIENT_MS * block_count ** _PER_STEP_EXPONENT
    return _INVOCATION_OVERHEAD_WORK_MS + per_step * steps


@dataclass(frozen=True)
class OffloadRequest:
    """The payload of one construct-simulation invocation."""

    construct_id: int | None
    #: structural description: (dx, dy, dz, component value, properties) per
    #: cell, relative to the construct's anchor, in sorted cell order
    structure: tuple[tuple[int, int, int, str, tuple], ...]
    #: current cell states, aligned with ``structure``
    states: tuple[int, ...]
    #: construct step counter at request time
    start_step: int
    #: steps to simulate
    steps: int
    #: logical timestamp (modification counter) at request time
    timestamp: int
    #: whether the function should compress detected loops
    detect_loops: bool = True

    @staticmethod
    def from_construct(
        construct: SimulatedConstruct, steps: int, detect_loops: bool = True
    ) -> "OffloadRequest":
        anchor = construct.anchor()
        return OffloadRequest(
            construct_id=construct.construct_id,
            structure=tuple(
                (
                    cell.position.x - anchor.x,
                    cell.position.y - anchor.y,
                    cell.position.z - anchor.z,
                    cell.component.value,
                    tuple(sorted(cell.properties.items())),
                )
                for cell in construct.cells
            ),
            states=tuple(construct.states.tolist()),
            start_step=construct.step,
            steps=int(steps),
            timestamp=construct.modification_counter,
            detect_loops=detect_loops,
        )

    def cache_key(self) -> tuple:
        """A memoisation key that ignores where the construct stands.

        Structurally identical constructs in the same state produce identical
        simulations regardless of where they sit in the world, so their
        requests share one cache entry and receive the same reply sequence.
        """
        return (self.structure, self.states, self.start_step, self.steps, self.detect_loops)


@dataclass(frozen=True)
class OffloadReply:
    """The result of one construct-simulation invocation."""

    #: echoed logical timestamp; the server discards the reply if it is stale
    timestamp: int
    sequence: CompressedStateSequence


def _build_canonical_construct(payload: OffloadRequest) -> SimulatedConstruct:
    """Rebuild the construct in anchor-relative coordinates."""
    cells = [
        Cell(
            position=BlockPos(dx, dy, dz),
            component=ComponentType(component_value),
            state=state,
            properties=dict(properties),
        )
        for (dx, dy, dz, component_value, properties), state in zip(
            payload.structure, payload.states, strict=True
        )
    ]
    construct = SimulatedConstruct(cells, construct_id=payload.construct_id)
    construct.step = payload.start_step
    return construct


def _simulated_rows(payload: OffloadRequest) -> Iterator[np.ndarray]:
    """Step the rebuilt construct on demand, yielding its state vector after each step.

    A step rebinds the vector rather than writing into it, so a yielded row never changes.
    """
    construct = _build_canonical_construct(payload)
    compiled = compile_circuit(construct)
    for _ in range(payload.steps):
        compiled.step()
        yield construct.states


class SimulationHandler:
    """The FaaS handler that simulates constructs speculatively.

    The handler is a pure function of its request: it rebuilds the construct,
    simulates the requested number of steps (stopping early if loop detection
    finds a repeating state, the paper's cost optimisation), and reports the
    single-vCPU work the simulation represents.  Identical requests are
    memoised (at most :data:`CACHE_CAPACITY` of them, oldest evicted first)
    and answered with the same read-only sequence, which keeps large
    experiments fast without changing behaviour.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple, tuple[CompressedStateSequence, int, float]] = {}

    def __call__(self, payload: OffloadRequest) -> FunctionOutput:
        if not isinstance(payload, OffloadRequest):
            raise TypeError(f"expected OffloadRequest, got {type(payload)!r}")

        key = payload.cache_key()
        cached = self._cache.get(key)
        if cached is None:
            rows = _simulated_rows(payload)
            if payload.detect_loops:
                sequence = compress_trace(payload.start_step, rows)
            else:
                sequence = CompressedStateSequence.from_rows(payload.start_step, list(rows))
            # The step that revealed a repeat was simulated but is not stored.
            steps_executed = sequence.explicit_length + (1 if sequence.is_looping else 0)
            work_ms = simulation_work_ms(len(payload.structure), steps_executed)
            cached = self._cache[key] = (sequence, steps_executed, work_ms)
            if len(self._cache) > CACHE_CAPACITY:
                del self._cache[next(iter(self._cache))]

        sequence, steps_executed, work_ms = cached
        reply = OffloadReply(timestamp=payload.timestamp, sequence=sequence)
        return FunctionOutput(value=reply, work_ms_single_vcpu=work_ms)
