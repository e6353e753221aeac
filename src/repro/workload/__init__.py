"""Workload generation: emulated players and experiment scenarios.

The paper drives its experiments with bot players exhibiting four behaviours
(Section IV-A): ``A`` (movement inside a bounded area, used for construct
experiments), ``Sx`` (star-shaped walks away from spawn at x blocks/s),
``Sinc`` (star walk with increasing speed) and ``R`` (randomised behaviour
with the action mix of Table II).  A fifth, ``C`` (converge on one point,
then mill around it), models a flash crowd.  Scenarios bundle a behaviour, a
player count, a join schedule and a construct workload, mirroring the rows of
Table I (the world type is the host's).
"""

from repro.workload.behavior import (
    Behavior,
    BoundedAreaBehavior,
    ConvergeBehavior,
    IncreasingSpeedStarBehavior,
    RandomBehavior,
    StarBehavior,
    behavior_by_code,
)
from repro.workload.bots import BotPlayer, BotSwarm, GameHost, JoinSchedule
from repro.workload.constructs import place_standard_constructs
from repro.workload.scenarios import (
    Scenario,
    ScenarioResult,
    TABLE_I_SCENARIOS,
    behaviour_a,
    custom,
    random_walk,
    sinc,
    star,
)

__all__ = [
    "Behavior",
    "BoundedAreaBehavior",
    "ConvergeBehavior",
    "StarBehavior",
    "IncreasingSpeedStarBehavior",
    "RandomBehavior",
    "behavior_by_code",
    "BotPlayer",
    "BotSwarm",
    "GameHost",
    "JoinSchedule",
    "place_standard_constructs",
    "Scenario",
    "ScenarioResult",
    "TABLE_I_SCENARIOS",
    "behaviour_a",
    "star",
    "sinc",
    "random_walk",
    "custom",
]
