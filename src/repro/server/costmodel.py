"""Tick cost models.

The reproduction computes the *functional* state of the world for real (block
edits, construct states, generated chunks), but the *duration* of a tick is
produced by a calibrated cost model: virtual milliseconds per unit of work
done in the tick, plus multiplicative noise and rare spikes.  This keeps the
experiments deterministic and laptop-scale while reproducing the relationships
the paper measures (tick-duration distributions as a function of players,
constructs and terrain churn).

:meth:`TickCostModel.breakdown` names the pre-noise cost terms; a tick's
duration is their sum in this order, times the noise draw, plus any spike:

* ``base`` -- fixed per-tick scheduling and bookkeeping;
* ``broadcast.players`` -- the full state fan-out, per player sent it;
* ``broadcast.entries`` and ``broadcast.flushes`` -- interest management's
  encoded delta entries and per-subscriber batch sends;
* ``actions`` -- client messages processed;
* ``constructs.local`` -- constructs simulated on the server;
* ``constructs.merged`` -- speculative state sequences applied (Servo);
* ``chunks.integrated``, ``chunks.local_generations``, ``chunks.backlog``,
  ``chunks.streamed`` and ``chunks.loaded`` -- terrain: integration, local
  generation interference and its capped backlog, streaming to clients, and
  ambient upkeep of loaded chunks.

The noise (:data:`NOISE_SIGMA`) and the spikes (:data:`SPIKE_PROBABILITY`,
:data:`SPIKE_MEDIAN_MS`, :data:`SPIKE_SIGMA`) are the same for every model.

Calibration targets (see DESIGN.md §6 and EXPERIMENTS.md):

* Opencraft supports ~200 players with no constructs, ~10 with 100 constructs,
  0 with 200 (Figure 7a), with a bimodal tick distribution because constructs
  are simulated every other tick.
* Minecraft supports ~110 players with no constructs, ~90 with 100, 0 with 200.
* Servo supports ~190 / ~150 / ~120 players for 0 / 100 / 200 constructs, with
  a narrow unimodal distribution close to Opencraft's lower mode (Figure 7b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: sigma of the multiplicative lognormal noise on every tick's cost
NOISE_SIGMA = 0.03
#: probability that a tick takes a latency spike (GC pause and similar)
SPIKE_PROBABILITY = 0.004
#: median spike magnitude in ms
SPIKE_MEDIAN_MS = 35.0
#: sigma of the lognormal spike magnitude
SPIKE_SIGMA = 0.4


@dataclass
class TickWork:
    """Everything a single tick had to do (inputs of the cost model)."""

    #: players sent the full fan-out state update this tick: the connected ones
    #: less any shed (0 under interest management, charged per entry and batch)
    players: int = 0
    #: client messages processed this tick
    actions: int = 0
    #: constructs simulated locally this tick (baseline path or Servo fallback)
    constructs_simulated_locally: int = 0
    #: constructs whose speculative state sequences were applied (Servo merge path)
    constructs_merged: int = 0
    #: total constructs registered on the server (loaded in the world)
    constructs_total: int = 0
    #: chunks integrated into the world this tick (from generation or storage)
    chunks_integrated: int = 0
    #: chunks whose generation completed on a *local* worker this tick
    local_generations_completed: int = 0
    #: chunk generations queued but not finished (local providers only)
    generation_backlog: int = 0
    #: chunks sent to clients this tick (terrain streaming)
    chunks_streamed: int = 0
    #: loaded chunks (ambient world upkeep: entities, random ticks)
    loaded_chunks: int = 0
    #: True when this tick is one of the every-N construct simulation ticks
    construct_tick: bool = False
    #: delta entries encoded into update batches this tick (each dirty entry
    #: is serialized once and shared by every subscriber's batch)
    update_entries_flushed: int = 0
    #: per-subscriber batch sends this tick (near flushes plus due far flushes)
    update_flushes: int = 0


@dataclass(frozen=True)
class TickCostModel:
    """Turns :class:`TickWork` into a virtual tick duration in milliseconds."""

    name: str
    #: fixed per-tick cost (scheduling, bookkeeping)
    base_ms: float
    #: cost per connected player per tick (state updates, connection upkeep)
    per_player_ms: float
    #: cost per processed client message
    per_action_ms: float
    #: aggregate cost of simulating n constructs locally in one tick
    construct_cost: Callable[[int], float]
    #: constructs are simulated every N ticks (2 for the baselines => bimodal)
    construct_tick_interval: int
    #: cost of applying one construct's speculative states (Servo merge path)
    per_merge_ms: float
    #: cost of integrating one newly loaded/generated chunk into the world
    per_chunk_integration_ms: float
    #: interference of one locally completed chunk generation (same-host CPU)
    per_local_generation_ms: float
    #: interference per queued (not yet generated) chunk on local providers
    per_backlog_chunk_ms: float
    #: cap on the backlog interference per tick
    backlog_interference_cap_ms: float
    #: cost of streaming one chunk to one client
    per_chunk_streamed_ms: float
    #: ambient upkeep per loaded chunk
    per_loaded_chunk_ms: float
    #: cost of encoding one delta entry into an update batch (interest mode;
    #: encode-on-write, so an entry is charged once however many subscribers
    #: receive it)
    per_update_entry_ms: float
    #: cost of sending one already-encoded batch to one subscriber (interest
    #: mode)
    per_update_flush_ms: float

    def breakdown(self, work: TickWork) -> dict[str, float]:
        """The pre-noise cost of each term of a tick that performed ``work``, in ms.

        Keyed by the term names listed in the module docstring, in the order
        :meth:`duration_ms` sums them.  The broadcast is three terms: per
        player under full fan-out, per encoded entry and per batch send under
        interest management; the mode a server does not run is exactly 0.0.
        """
        locally = work.constructs_simulated_locally
        return {
            "base": self.base_ms,
            "broadcast.players": self.per_player_ms * work.players,
            "broadcast.entries": self.per_update_entry_ms * work.update_entries_flushed,
            "broadcast.flushes": self.per_update_flush_ms * work.update_flushes,
            "actions": self.per_action_ms * work.actions,
            "constructs.local": self.construct_cost(locally) if locally > 0 else 0.0,
            "constructs.merged": self.per_merge_ms * work.constructs_merged,
            "chunks.integrated": self.per_chunk_integration_ms * work.chunks_integrated,
            "chunks.local_generations": (
                self.per_local_generation_ms * work.local_generations_completed
            ),
            "chunks.backlog": min(
                self.per_backlog_chunk_ms * work.generation_backlog,
                self.backlog_interference_cap_ms,
            ),
            "chunks.streamed": self.per_chunk_streamed_ms * work.chunks_streamed,
            "chunks.loaded": self.per_loaded_chunk_ms * work.loaded_chunks,
        }

    def duration_ms(self, work: TickWork, rng: np.random.Generator) -> float:
        """The virtual duration of a tick that performed ``work``.

        The sum of :meth:`breakdown`, times one lognormal noise draw, plus a
        rare spike.  The terms are added one at a time, left to right: from
        Python 3.12 ``sum()`` compensates float rounding, which would change
        the last bit of some durations.
        """
        duration = 0.0
        for cost in self.breakdown(work).values():
            duration += cost
        # Multiplicative noise around the deterministic cost.
        duration *= float(rng.lognormal(mean=0.0, sigma=NOISE_SIGMA))
        # Rare spikes (garbage collection, page faults).
        if rng.random() < SPIKE_PROBABILITY:
            duration += float(rng.lognormal(mean=np.log(SPIKE_MEDIAN_MS), sigma=SPIKE_SIGMA))
        return float(duration)


def _opencraft_construct_cost(constructs: int) -> float:
    """Opencraft's local construct engine: mildly superlinear in construct count.

    ~0.107 * n^1.3 ms per construct-simulation tick: ~42 ms at 100 constructs,
    ~104 ms at 200, which yields the paper's ~10 supported players at 100
    constructs and 0 at 200.
    """
    return 0.1065 * constructs ** 1.3


def _minecraft_construct_cost(constructs: int) -> float:
    """Minecraft's construct engine: strongly superlinear in construct count.

    ~6.1e-5 * n^2.56 ms: ~8 ms at 100 constructs (90 players supported) but
    ~47 ms at 200 (no players supported), matching Figure 7a.
    """
    return 6.07e-5 * constructs ** 2.56


def _servo_fallback_construct_cost(constructs: int) -> float:
    """Cost of Servo's local fallback simulation (linear; only a few at a time)."""
    return 0.45 * constructs


OPENCRAFT_COST_MODEL = TickCostModel(
    name="opencraft",
    base_ms=2.0,
    per_player_ms=0.210,
    per_action_ms=0.013,
    construct_cost=_opencraft_construct_cost,
    construct_tick_interval=2,
    per_merge_ms=0.0,
    per_chunk_integration_ms=5.0,
    per_local_generation_ms=17.0,
    per_backlog_chunk_ms=0.035,
    backlog_interference_cap_ms=25.0,
    per_chunk_streamed_ms=2.2,
    per_loaded_chunk_ms=0.001,
    per_update_entry_ms=0.030,
    per_update_flush_ms=0.040,
)

MINECRAFT_COST_MODEL = TickCostModel(
    name="minecraft",
    base_ms=3.0,
    per_player_ms=0.380,
    per_action_ms=0.015,
    construct_cost=_minecraft_construct_cost,
    construct_tick_interval=2,
    per_merge_ms=0.0,
    per_chunk_integration_ms=6.0,
    per_local_generation_ms=19.0,
    per_backlog_chunk_ms=0.04,
    backlog_interference_cap_ms=28.0,
    per_chunk_streamed_ms=2.6,
    per_loaded_chunk_ms=0.0013,
    per_update_entry_ms=0.045,
    per_update_flush_ms=0.065,
)

SERVO_COST_MODEL = TickCostModel(
    name="servo",
    base_ms=2.2,
    per_player_ms=0.220,
    per_action_ms=0.014,
    construct_cost=_servo_fallback_construct_cost,
    construct_tick_interval=1,
    per_merge_ms=0.078,
    per_chunk_integration_ms=4.5,
    per_local_generation_ms=0.0,
    per_backlog_chunk_ms=0.0,
    backlog_interference_cap_ms=0.0,
    per_chunk_streamed_ms=2.2,
    per_loaded_chunk_ms=0.001,
    per_update_entry_ms=0.030,
    per_update_flush_ms=0.042,
)
