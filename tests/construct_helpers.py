"""Construct edits and twins for the tests: cell reads and edits, and a copy to step beside."""

from repro.constructs.circuit import Cell, SimulatedConstruct
from repro.constructs.components import ComponentType
from repro.world.coords import BlockPos


def clone_construct(construct: SimulatedConstruct) -> SimulatedConstruct:
    """Deep-copy a construct (same id, independent cell states)."""
    cells = [
        Cell(
            position=cell.position,
            component=cell.component,
            state=cell.state,
            properties=dict(cell.properties),
        )
        for cell in construct.cells
    ]
    clone = SimulatedConstruct(cells, name=construct.name, construct_id=construct.construct_id)
    clone.step = construct.step
    clone.modification_counter = construct.modification_counter
    return clone


def cell_at(construct: SimulatedConstruct, position: BlockPos) -> Cell:
    """The construct's cell at ``position``."""
    return construct.cells[construct.index_of[position]]


def set_cell(construct: SimulatedConstruct, position: BlockPos, state: int) -> int:
    """Set one cell's state as a player would; returns the new modification counter."""
    cell_at(construct, position).state = int(state)
    return construct.player_modify(position)


def toggle_lever(construct: SimulatedConstruct, position: BlockPos) -> int:
    """Flip a lever cell as a player would; returns the new modification counter."""
    cell = cell_at(construct, position)
    assert cell.component is ComponentType.LEVER, f"cell at {position} is not a lever"
    return set_cell(construct, position, 0 if cell.state > 0 else 1)
