"""Baseline server variants: Opencraft and Minecraft.

Both baselines run everything locally: constructs are simulated on the server
every other tick, terrain is generated by local worker threads and state is
persisted to local disk.  They differ in their cost-model calibration
(Minecraft's official server handles fewer players per tick and its construct
engine scales worse with construct count, per Figure 7).  Each is one
:class:`~repro.server.gameloop.GameServer` with its cost model and no services
plugged in, so the server supplies the all-local defaults.
"""

from __future__ import annotations

from repro.api.hosts import register_host
from repro.server.config import GameConfig
from repro.server.costmodel import MINECRAFT_COST_MODEL, OPENCRAFT_COST_MODEL
from repro.server.gameloop import GameServer
from repro.sim.engine import SimulationEngine


@register_host("opencraft")
def make_opencraft(engine: SimulationEngine, config: GameConfig | None = None) -> GameServer:
    """Build an Opencraft baseline server (all components local)."""
    return GameServer(engine, config or GameConfig(), OPENCRAFT_COST_MODEL, name="opencraft")


@register_host("minecraft")
def make_minecraft(engine: SimulationEngine, config: GameConfig | None = None) -> GameServer:
    """Build a Minecraft baseline server (all components local, official-server profile)."""
    return GameServer(engine, config or GameConfig(), MINECRAFT_COST_MODEL, name="minecraft")
