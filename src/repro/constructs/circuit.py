"""Simulated constructs: collections of stateful cells.

A :class:`SimulatedConstruct` is the unit Servo offloads: it owns a set of
cells (stateful blocks with a component behaviour, optional properties and an
integer state) and a monotonically increasing *modification counter* that
serves as the logical timestamp the paper uses to invalidate stale speculative
results after a player edits the construct.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.constructs.components import ComponentType, block_for_component
from repro.constructs.state import ConstructState
from repro.world.block import BlockType
from repro.world.coords import BlockPos

_construct_ids = itertools.count(1)


@dataclass
class Cell:
    """One stateful block inside a construct."""

    position: BlockPos
    component: ComponentType
    state: int = 0
    properties: dict = field(default_factory=dict)

    @property
    def block_type(self) -> BlockType:
        return block_for_component(self.component)


class SimulatedConstruct:
    """A player-built construct of stateful blocks."""

    def __init__(
        self,
        cells: Iterable[Cell],
        name: str = "",
        construct_id: int | None = None,
    ) -> None:
        self.construct_id = int(construct_id) if construct_id is not None else next(_construct_ids)
        self.name = name or f"construct-{self.construct_id}"
        self._cells: dict[BlockPos, Cell] = {}
        for cell in cells:
            if cell.position in self._cells:
                raise ValueError(f"duplicate cell at {cell.position} in construct {self.name}")
            self._cells[cell.position] = cell
        if not self._cells:
            raise ValueError("a simulated construct must contain at least one cell")
        #: logical timestamp, incremented whenever a player modifies the construct
        self.modification_counter = 0
        #: simulation step counter (how many ticks this construct has been simulated)
        self.step = 0
        # The cell set never changes after construction, so the sorted cell
        # list and the adjacency map are computed once and reused by the
        # simulator's hot loop.
        self._sorted_cells = [self._cells[pos] for pos in sorted(self._cells)]
        self._adjacency: dict[BlockPos, list[BlockPos]] | None = None

    # -- structure ----------------------------------------------------------------

    @property
    def cells(self) -> list[Cell]:
        return self._sorted_cells

    def adjacency(self) -> dict[BlockPos, list[BlockPos]]:
        """Neighbour positions (within the construct) per cell, cached."""
        if self._adjacency is None:
            self._adjacency = {
                pos: [p for p in pos.neighbours() if p in self._cells]
                for pos in self._cells
            }
        return self._adjacency

    @property
    def positions(self) -> list[BlockPos]:
        return sorted(self._cells)

    @property
    def block_count(self) -> int:
        return len(self._cells)

    def cell_at(self, pos: BlockPos) -> Cell:
        if pos not in self._cells:
            raise KeyError(f"construct {self.name} has no cell at {pos}")
        return self._cells[pos]

    def contains(self, pos: BlockPos) -> bool:
        return pos in self._cells

    def bounding_box(self) -> tuple[BlockPos, BlockPos]:
        xs = [p.x for p in self._cells]
        ys = [p.y for p in self._cells]
        zs = [p.z for p in self._cells]
        return BlockPos(min(xs), min(ys), min(zs)), BlockPos(max(xs), max(ys), max(zs))

    def anchor(self) -> BlockPos:
        """A representative position (minimum corner) used for chunk assignment."""
        return self.bounding_box()[0]

    # -- state --------------------------------------------------------------------

    def snapshot(self) -> ConstructState:
        """An immutable snapshot of the current cell states."""
        return ConstructState(step=self.step, states={p: c.state for p, c in self._cells.items()})

    def apply_state(self, state: ConstructState | Mapping[BlockPos, int], step: int | None = None) -> None:
        """Overwrite cell states from a snapshot (used when applying speculation)."""
        if isinstance(state, ConstructState):
            values: Mapping[BlockPos, int] = state.states
            new_step = state.step if step is None else step
        else:
            values = state
            if step is None:
                raise ValueError("step must be provided when applying a raw state mapping")
            new_step = step
        unknown = set(values) - set(self._cells)
        if unknown:
            raise KeyError(f"state refers to positions not in construct {self.name}: {sorted(unknown)[:3]}")
        for pos, value in values.items():
            self._cells[pos].state = int(value)
        self.step = int(new_step)

    def apply_values(self, values: list[int], step: int) -> None:
        """Overwrite cell states from a list aligned with :attr:`cells` order.

        The merge path of speculative execution: replies carry states in
        sorted cell order, so applying one needs no position lookups.
        """
        cells = self._sorted_cells
        if len(values) != len(cells):
            raise ValueError(
                f"construct {self.name} has {len(cells)} cells, got {len(values)} values"
            )
        for cell, value in zip(cells, values):
            cell.state = value
        self.step = step

    def copy_state_from(self, other: "SimulatedConstruct") -> None:
        """Copy cell states (and the step counter) from a structurally identical construct.

        Cells are matched by their sorted order, so the two constructs may sit
        at different world positions as long as their shapes match.  Used to
        share one functional simulation between identical constructs.
        """
        if other.block_count != self.block_count:
            raise ValueError(
                f"cannot copy state between constructs of different sizes "
                f"({other.block_count} vs {self.block_count})"
            )
        for own_cell, other_cell in zip(self.cells, other.cells):
            if own_cell.component is not other_cell.component:
                raise ValueError("cannot copy state between structurally different constructs")
            own_cell.state = other_cell.state
        self.step = other.step

    # -- player interaction ---------------------------------------------------------

    def player_modify(self, pos: BlockPos, new_state: int | None = None) -> int:
        """Record a player modification of the construct.

        Returns the new modification counter (the logical timestamp attached
        to subsequent offload requests).  If ``new_state`` is given the cell's
        state is changed (e.g. toggling a lever); otherwise only the timestamp
        advances (e.g. the player changed nearby terrain).
        """
        if new_state is not None:
            self.cell_at(pos).state = int(new_state)
        elif pos not in self._cells:
            # Terrain edits adjacent to the construct still invalidate speculation.
            pass
        self.modification_counter += 1
        return self.modification_counter

    def toggle_lever(self, pos: BlockPos) -> int:
        """Toggle a lever cell and advance the modification counter."""
        cell = self.cell_at(pos)
        if cell.component is not ComponentType.LEVER:
            raise ValueError(f"cell at {pos} is a {cell.component.value}, not a lever")
        return self.player_modify(pos, 0 if cell.state > 0 else 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulatedConstruct(id={self.construct_id}, name={self.name!r}, "
            f"blocks={self.block_count}, step={self.step})"
        )
