"""The cluster chaos target: kill whole arrays mid-workload, prove the ack.

:class:`ClusterTarget` plugs a :class:`~repro.cluster.cluster.Cluster`
into the one :class:`~repro.faults.chaos.ChaosHarness` (same workload,
same oracle, same report) and fires a :meth:`FaultPlan.generate_cluster
<repro.faults.plan.FaultPlan.generate_cluster>` schedule of array
kills, revives, timed network partitions and per-array drive failures::

    ChaosHarness(seed, target=ClusterTarget, total_ops=240).run()

What the harness asserts becomes the cluster-grade contract:

* **zero acknowledged-write loss** — the ack means every serving
  replica held the bytes, so one array-sized failure cannot lose them;
  a byte check is tagged with the *serving node's* ladder state;
* **bounded reroute** — every primary failover the client waits out
  completes within ``REROUTE_BOUND`` plus one heartbeat;
* **replay determinism** — the fired-fault trace is identical for
  identical seeds.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.config import HEARTBEAT_INTERVAL, REROUTE_BOUND, ClusterConfig
from repro.cluster.mdm import ALIVE
from repro.faults.chaos import replace_failed_drives
from repro.faults.injector import FaultEvent
from repro.faults.plan import (
    ARRAY_KILL,
    ARRAY_REVIVE,
    DRIVE_FAIL,
    NET_PARTITION,
    FaultPlan,
)

#: Member arrays: RF=2 leaves one spare to fail over to.
NUM_ARRAYS = 3


class ClusterTarget:
    """A 3-array RF=2 cluster (see :class:`repro.faults.chaos.ArrayTarget`
    for the target protocol)."""

    VOLUMES = tuple("cvol%d" % index for index in range(4))
    RECORD_SIZE = 2048
    RECORD_SLOTS = 8
    OUTAGE_BOUND = REROUTE_BOUND + HEARTBEAT_INTERVAL

    def __init__(self, seed, report, tracing):
        self.seed = seed
        self.report = report
        self.cluster = self.backend = Cluster(
            ClusterConfig(num_arrays=NUM_ARRAYS, seed=seed))
        self.obs = self.cluster.obs
        if tracing:
            self.cluster.enable_tracing()
        self.fault_events = []

    def arm(self, plan, total_ops, maintenance_every):
        if plan is None:
            first = next(iter(self.cluster.nodes.values()))
            plan = FaultPlan.generate_cluster(
                self.seed,
                total_ops,
                sorted(self.cluster.nodes),
                drive_names=sorted(first.array.drives),
                maintenance_every=maintenance_every,
            )
        self.plan = plan
        return plan

    def advance_to_op(self, op):
        for spec in self.plan.due(op):
            self._fire(op, spec)

    def _fire(self, op, spec):
        cluster = self.cluster
        if spec.kind == ARRAY_KILL:
            # The revive boots a new controller with a new ladder.
            self.report.fold_ladder(cluster.nodes[spec.target].array.degrade)
            cluster.kill(spec.target)
        elif spec.kind == ARRAY_REVIVE:
            cluster.revive(spec.target)
        elif spec.kind == NET_PARTITION:
            cluster.partition(spec.target, spec.params[0])
        elif spec.kind == DRIVE_FAIL:
            node_id, drive = spec.target.split(":", 1)
            node = cluster.nodes[node_id]
            if not node.alive or drive not in node.array.drives \
                    or node.array.drives[drive].failed:
                return  # node down or drive already failed: no-op
            node.array.fail_drive(drive)
        self.report.counts[spec.kind] += 1
        self.fault_events.append(FaultEvent(
            op, cluster.clock.now, spec.kind, spec.target, tuple(spec.params)))
        self.obs.event("fault", kind=spec.kind, target=spec.target)

    def ladder_state(self):
        client = self.cluster.client
        return self.cluster.nodes[client.last_read_node].degrade_state

    def maintain(self):
        """Settle membership, then repair every live array.

        ``settle`` advances simulated time so partitions heal, silent
        members get declared dead, rejoins complete, and every refresh
        copy drains — the cluster-level scrub pass that separates two
        disruptions.
        """
        self.cluster.settle()
        for node_id in sorted(self.cluster.nodes):
            node = self.cluster.nodes[node_id]
            if node.alive:
                replace_failed_drives(node.array, self.report.counts)
                node.array.service_health()
                node.array.rebuild()
                node.array.scrub()

    def final_checks(self):
        """Every volume's primary must be alive and clean."""
        mdm = self.cluster.mdm
        for volume in self.VOLUMES:
            primary = mdm.routing(volume)[0]
            if mdm.status(primary) != ALIVE:
                yield ("primary-alive", "volume %s routed to %s (%s)"
                       % (volume, primary, mdm.status(primary)))
            if primary not in mdm.clean_replicas(volume):
                yield ("primary-clean", "volume %s primary %s is not in "
                       "the clean set" % (volume, primary))

    def finish(self):
        for node_id in sorted(self.cluster.nodes):
            self.report.fold_ladder(self.cluster.nodes[node_id].array.degrade)
        self.report.outages.extend(self.cluster.client.reroute_times)
        counter = self.obs.metrics.counter
        self.report.counts.update(
            stale_retries=counter("cluster.stale_retries").value,
            volumes_moved=counter("cluster.rebalance.volumes_moved").value,
            bytes_copied=counter("cluster.rebalance.bytes_copied").value,
        )
