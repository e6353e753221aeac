"""Simulated constructs: collections of stateful cells.

A :class:`SimulatedConstruct` is the unit Servo offloads: it owns a set of
cells (stateful blocks with a component behaviour, optional properties and an
integer state) and a monotonically increasing *modification counter* that
serves as the logical timestamp the paper uses to invalidate stale speculative
results after a player edits the construct.

``SimulatedConstruct.states`` — one 1-D array in ``cells`` (sorted-position)
order — is the only copy of the cell states: the steppers read and rebind it,
a merge copies a reply row into it, ``Cell.state`` and ``snapshot()`` are
views built on demand.  Invariants (``ConstructBackend.verify_states``): it is
writable ``int64`` of length ``block_count``; no two constructs' vectors share
memory; no ``np.int64`` leaves through ``Cell.state``, ``snapshot()`` or a
request — digests and JSON see Python ``int``.  Between ticks it changes only
through its backend or an edit the backend hears about (``on_player_modify``):
it may be a row of a loop the backend replays.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.constructs.components import ComponentType, block_for_component
from repro.constructs.state import ConstructState
from repro.world.block import BlockType
from repro.world.coords import BlockPos


class ConstructIds:
    """One host's construct numbering: host state, so a restored host goes on where it left off."""

    def __init__(self) -> None:
        self.last = 0

    def number(self, construct: "SimulatedConstruct") -> int:
        """Give an unnumbered ``construct`` the id after the highest seen; returns its id."""
        if construct.construct_id is None:
            construct.construct_id = self.last + 1
        self.last = max(self.last, construct.construct_id)
        return construct.construct_id


class Cell:
    """One stateful block; once a construct adopts it, ``state`` is its slot of ``states``."""

    __slots__ = ("position", "component", "properties", "_state", "_owner", "_index")

    def __init__(
        self,
        position: BlockPos,
        component: ComponentType,
        state: int = 0,
        properties: dict | None = None,
    ) -> None:
        self.position = position
        self.component = component
        self.properties = {} if properties is None else properties
        self._state = state
        self._owner: SimulatedConstruct | None = None
        self._index = 0

    @property
    def state(self) -> int:
        if self._owner is None:
            return self._state
        return int(self._owner.states[self._index])

    @state.setter
    def state(self, value: int) -> None:
        if self._owner is None:
            self._state = value
        else:
            self._owner.states[self._index] = value

    @property
    def block_type(self) -> BlockType:
        return block_for_component(self.component)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cell({self.position!r}, {self.component!r}, {self.state!r}, {self.properties!r})"


class SimulatedConstruct:
    """A player-built construct of stateful blocks."""

    def __init__(
        self,
        cells: Iterable[Cell],
        name: str = "",
        construct_id: int | None = None,
    ) -> None:
        #: None until a host registers it (see :class:`ConstructIds`)
        self.construct_id = int(construct_id) if construct_id is not None else None
        self.name = name or "construct"
        # The cell set never changes, so everything derived from it is computed once.
        self.cells: list[Cell] = sorted(cells, key=lambda cell: cell.position)
        self.positions = [cell.position for cell in self.cells]
        #: position -> index in ``cells`` / ``positions`` / ``states``
        self.index_of = {pos: index for index, pos in enumerate(self.positions)}
        if not self.positions:
            raise ValueError("a simulated construct must contain at least one cell")
        if len(self.index_of) != len(self.positions):
            raise ValueError(f"two cells share a position in construct {self.name}")
        if any(cell._owner is not None for cell in self.cells):
            raise ValueError(f"construct {self.name} was given a cell another construct owns")
        #: the cell states in ``cells`` order (see the module docstring)
        self.states = np.array([cell._state for cell in self.cells], dtype=np.int64)
        for index, cell in enumerate(self.cells):
            cell._owner, cell._index = self, index
        #: logical timestamp, incremented whenever a player modifies the construct
        self.modification_counter = 0
        #: simulation step counter (how many ticks this construct has been simulated)
        self.step = 0
        self._adjacency: dict[BlockPos, list[BlockPos]] | None = None

    # -- structure ----------------------------------------------------------------

    def adjacency(self) -> dict[BlockPos, list[BlockPos]]:
        """Neighbour positions (within the construct) per cell, cached."""
        if self._adjacency is None:
            self._adjacency = {
                pos: [p for p in pos.neighbours() if p in self.index_of]
                for pos in self.positions
            }
        return self._adjacency

    @property
    def block_count(self) -> int:
        return len(self.positions)

    def bounding_box(self) -> tuple[BlockPos, BlockPos]:
        xs = [p.x for p in self.positions]
        ys = [p.y for p in self.positions]
        zs = [p.z for p in self.positions]
        return BlockPos(min(xs), min(ys), min(zs)), BlockPos(max(xs), max(ys), max(zs))

    def anchor(self) -> BlockPos:
        """A representative position (minimum corner) used for chunk assignment."""
        return self.bounding_box()[0]

    # -- state --------------------------------------------------------------------

    def snapshot(self) -> ConstructState:
        """An immutable snapshot of the current cell states."""
        return ConstructState(step=self.step, states=dict(zip(self.positions, self.states.tolist())))

    def apply_row(self, row: np.ndarray, step: int) -> None:
        """The merge path: replace the state vector with a *copy* of ``row``.

        Reply rows are read-only and shared by every structurally identical
        construct; the copy keeps this vector writable and private.
        """
        states = np.array(row, dtype=np.int64)
        if states.shape != self.states.shape:
            raise ValueError(
                f"construct {self.name} has {self.block_count} cells, got a row of shape {states.shape}"
            )
        self.states = states
        self.step = step

    # -- player interaction ---------------------------------------------------------

    def player_modify(self, pos: BlockPos) -> int:
        """Record a player modification at or next to ``pos``.

        Returns the new modification counter (the logical timestamp attached
        to subsequent offload requests).  Only the timestamp advances: an edit
        of a cell's state (e.g. toggling a lever) is written to the cell by
        whoever made it.
        """
        self.modification_counter += 1
        return self.modification_counter

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulatedConstruct(id={self.construct_id}, name={self.name!r}, "
            f"blocks={self.block_count}, step={self.step})"
        )
