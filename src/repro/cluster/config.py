"""Cluster-level configuration.

One frozen dataclass, mirroring :class:`repro.core.config.ArrayConfig`:
construct once, thread everywhere, never mutate. Per-array knobs stay
in each node's own ``ArrayConfig`` (the cluster derives one per node,
seeded from the cluster seed, unless the caller passes explicit
configs); this object only holds what exists *between* arrays —
membership size, replication and the seed. The membership timing is
fixed: the module constants below.
"""

from dataclasses import dataclass

#: Simulated seconds between a node's heartbeats to the MDM.
HEARTBEAT_INTERVAL = 0.25
#: Heartbeat silence after which the MDM marks a member suspect
#: (skipped for new placements, writes no longer wait on it).
SUSPECT_AFTER = 0.75
#: Heartbeat silence after which the MDM declares a member dead and
#: rebalances its volumes onto clean survivors.
DEAD_AFTER = 1.5
#: Extra heartbeat intervals the client waits beyond ``DEAD_AFTER``
#: for the MDM to declare a silent primary dead before giving up.
FAILOVER_SLACK = 6
#: Upper bound on one failover's reroute time, in simulated seconds:
#: the MDM needs ``DEAD_AFTER`` of silence plus up to ``FAILOVER_SLACK``
#: heartbeat ticks of detection granularity.
REROUTE_BOUND = DEAD_AFTER + FAILOVER_SLACK * HEARTBEAT_INTERVAL


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for the MDM/node/client split (see :mod:`repro.cluster`)."""

    #: Number of member arrays ("array0" .. "arrayN-1").
    num_arrays: int = 2
    #: Synchronous replicas per volume (capped at ``num_arrays``). With
    #: two, any single array-sized failure loses no acknowledged write.
    replication: int = 2
    #: Seed namespace for derived per-node ``ArrayConfig`` seeds.
    seed: int = 0

    def __post_init__(self):
        if self.num_arrays < 1:
            raise ValueError("num_arrays must be >= 1")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")

    @property
    def effective_replication(self):
        return min(self.replication, self.num_arrays)

    def node_ids(self):
        return tuple("array%d" % index for index in range(self.num_arrays))

    def node_seed(self, index):
        """Per-node array seed: disjoint namespaces under one cluster
        seed, so two nodes never replay each other's device streams."""
        return self.seed * 1000 + index
