"""Servo: the paper's contribution.

Servo is a serverless backend architecture for MVEs.  It keeps the unmodified
client protocol and the 20 Hz game loop, and plugs three serverless services
into the game server:

* :mod:`repro.core.speculative` — replicated speculative execution of
  simulated constructs on FaaS, with logical-timestamp invalidation and
  tick-lead driven invocation (Section III-C).
* :mod:`repro.constructs.loop_detection` — the cost optimisation that
  truncates periodic constructs to a single loop (Section III-C1).
* :mod:`repro.core.terrain_service` — on-demand terrain generation in
  serverless functions (Section III-D).
* :mod:`repro.core.storage_service` — remote state storage behind a local
  cache with distance-based prefetching (Section III-E).

:func:`build_servo_server` assembles all of it into a ready-to-run
:class:`repro.server.GameServer`.
"""

from repro.core.config import ServoConfig
from repro.core.offload import (
    SC_SIMULATION_FUNCTION,
    OffloadReply,
    OffloadRequest,
    SimulationHandler,
    simulation_work_ms,
)
from repro.core.servo import ServoRuntime, build_servo_server
from repro.core.speculative import SpeculativeConstructBackend, SpeculationRecord
from repro.core.storage_service import ServoStorageService
from repro.core.terrain_service import (
    TERRAIN_GENERATION_FUNCTION,
    ServerlessTerrainProvider,
    TerrainHandler,
    terrain_generation_work_ms,
)

__all__ = [
    "ServoConfig",
    "OffloadRequest",
    "OffloadReply",
    "SimulationHandler",
    "simulation_work_ms",
    "SC_SIMULATION_FUNCTION",
    "SpeculativeConstructBackend",
    "SpeculationRecord",
    "ServerlessTerrainProvider",
    "TerrainHandler",
    "terrain_generation_work_ms",
    "TERRAIN_GENERATION_FUNCTION",
    "ServoStorageService",
    "ServoRuntime",
    "build_servo_server",
]
