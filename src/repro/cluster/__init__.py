"""Multi-array clustering: the ROADMAP's "millions of users" move.

The paper's availability story is one array with two HA controllers;
this package scales it out. Volumes are sharded across N independent
:class:`~repro.core.array.PurityArray` engines (one process, shared
sim clock, per-node configs and metric registries) behind three roles:

* :class:`~repro.cluster.mdm.MetadataManager` — volume→array placement
  (capacity-capped rendezvous hashing, epoch-stamped maps), heartbeat-
  driven membership (alive/suspect/dead), clean-replica tracking, and
  rate-limited refresh copies after failures;
* :class:`~repro.cluster.node.ArrayNode` — one engine behind a
  message-passing facade that validates liveness and placement epochs;
* :class:`~repro.cluster.client.ClusterClient` — routes by cached
  epoch, retries stale-epoch rejections, and waits out the failure
  detector to fail over when the MDM declares an array dead.

:class:`~repro.cluster.cluster.Cluster` wires the stack; with one
array it is a bit-for-bit passthrough to the bare engine (the
differential test's contract). :class:`~repro.cluster.chaos.
ClusterTarget` lets the one chaos harness kill whole arrays
mid-workload and prove zero acknowledged-write loss on the sim clock.
"""

from repro.cluster.chaos import ClusterTarget
from repro.cluster.client import ClusterClient
from repro.cluster.cluster import Cluster
from repro.cluster.config import ClusterConfig
from repro.cluster.fabric import NetworkFabric
from repro.cluster.mdm import ALIVE, DEAD, SUSPECT, MetadataManager
from repro.cluster.node import ArrayNode
from repro.cluster.placement import (
    PlacementMap,
    placement_score,
    primary_cap,
    ranked_members,
)

__all__ = [
    "ALIVE",
    "ArrayNode",
    "Cluster",
    "ClusterClient",
    "ClusterConfig",
    "ClusterTarget",
    "DEAD",
    "MetadataManager",
    "NetworkFabric",
    "PlacementMap",
    "SUSPECT",
    "placement_score",
    "primary_cap",
    "ranked_members",
]
