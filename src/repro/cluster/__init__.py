"""Zone-partitioned multi-server clusters.

The paper raises the ceiling of *one* MVE server by offloading constructs,
terrain and storage to serverless services; this layer raises the ceiling of
the *world* by partitioning it into zones served by cooperating game servers
that share one simulation engine and (for Servo) one FaaS platform and blob
store:

* :mod:`repro.cluster.partition` — grid zones over chunk coordinates and the
  per-shard ownership regions derived from them.
* :mod:`repro.cluster.coordinator` — virtual-time lockstep ticking of all
  shards and the player-migration protocol (session state serialized through
  the shared storage service, and the player's one session moved to the
  owning shard, when an avatar crosses a zone boundary).
* :mod:`repro.cluster.assembly` — one cluster assembly shared by the Servo
  and Opencraft variants; each shard is the same
  :class:`~repro.server.GameServer` the single-server stack builds.
"""

from repro.cluster.assembly import build_opencraft_cluster, build_servo_cluster
from repro.cluster.coordinator import ClusterChunks, ClusterCoordinator, MigrationRecord
from repro.cluster.partition import WorldPartitioner

__all__ = [
    "WorldPartitioner",
    "ClusterChunks",
    "ClusterCoordinator",
    "MigrationRecord",
    "build_servo_cluster",
    "build_opencraft_cluster",
]
