"""Baseline server variants: Opencraft and Minecraft.

Both baselines run everything locally: constructs are simulated on the server
every other tick, terrain is generated by local worker threads and state is
persisted to local disk.  They differ in their cost-model calibration
(Minecraft's official server handles fewer players per tick and its construct
engine scales worse with construct count, per Figure 7).  Both are assembled
through :class:`~repro.server.builder.ServerBuilder`, which supplies the
all-local default services.
"""

from __future__ import annotations

from repro.api.hosts import register_host
from repro.server.builder import ServerBuilder
from repro.server.config import GameConfig
from repro.server.costmodel import MINECRAFT_COST_MODEL, OPENCRAFT_COST_MODEL, TickCostModel
from repro.server.gameloop import GameServer
from repro.sim.engine import SimulationEngine


def _make_local_server(
    engine: SimulationEngine, config: GameConfig, cost_model: TickCostModel, name: str
) -> GameServer:
    return ServerBuilder(engine, config, name=name).with_cost_model(cost_model).build()


@register_host("opencraft")
def make_opencraft(engine: SimulationEngine, config: GameConfig | None = None) -> GameServer:
    """Build an Opencraft baseline server (all components local)."""
    return _make_local_server(
        engine=engine,
        config=config or GameConfig(),
        cost_model=OPENCRAFT_COST_MODEL,
        name="opencraft",
    )


@register_host("minecraft")
def make_minecraft(engine: SimulationEngine, config: GameConfig | None = None) -> GameServer:
    """Build a Minecraft baseline server (all components local, official-server profile)."""
    return _make_local_server(
        engine=engine,
        config=config or GameConfig(),
        cost_model=MINECRAFT_COST_MODEL,
        name="minecraft",
    )
