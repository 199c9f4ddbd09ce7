"""The cluster facade: N Purity arrays behind one client interface.

``Cluster`` wires the whole stack — shared :class:`SimClock` and
:class:`EventLoop`, a :class:`NetworkFabric`, N :class:`ArrayNode`\\ s
(each its own engine, config, and metrics registry, all sharing one
:class:`TraceBuffer`), one :class:`MetadataManager`, and one
:class:`ClusterClient` — and exposes the same ``create_volume`` /
``write`` / ``read`` verbs a single :class:`PurityArray` does.

**Passthrough contract (N=1).** A one-array cluster is a pure wrapper:
no heartbeats are scheduled, no cluster spans or metrics are recorded,
and every verb delegates straight to the single engine. A 1-array
cluster run is byte-identical — drive bytes, read results, trace
records, metric snapshots — to a bare ``PurityArray`` run on the same
seed, which is what the differential test asserts and what makes the
cluster layer trustworthy: whatever it adds for N≥2, it provably adds
*nothing* at N=1.
"""

from repro.cluster.client import ClusterClient
from repro.cluster.config import HEARTBEAT_INTERVAL, ClusterConfig
from repro.cluster.fabric import NetworkFabric
from repro.cluster.mdm import SUSPECT, MetadataManager
from repro.cluster.node import ArrayNode
from repro.core.config import ArrayConfig
from repro.obs.trace import Observability, TraceBuffer
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop


class Cluster:
    """N member arrays, one MDM, one routing client, one sim clock."""

    def __init__(self, config=None, array_configs=None):
        self.config = config or ClusterConfig()
        self.clock = SimClock()
        self.loop = EventLoop(self.clock)
        self.fabric = NetworkFabric(self.clock)
        self.buffer = TraceBuffer()
        node_ids = self.config.node_ids()
        if array_configs is None:
            array_configs = [
                ArrayConfig.small(seed=self.config.node_seed(index))
                for index in range(self.config.num_arrays)
            ]
        if len(array_configs) != self.config.num_arrays:
            raise ValueError(
                "need %d array configs, got %d"
                % (self.config.num_arrays, len(array_configs))
            )
        self.nodes = {}
        for node_id, array_config in zip(node_ids, array_configs):
            self.nodes[node_id] = ArrayNode(
                node_id, array_config, self.clock, buffer=self.buffer
            )
        #: Cluster-scoped observability: its registry holds only the
        #: ``cluster.*`` metrics; its trace buffer is the shared one.
        self.obs = Observability(self.clock, buffer=self.buffer)
        self.passthrough = self.config.num_arrays == 1
        self.mdm = MetadataManager(
            self.config, self.clock, self.loop, self.fabric,
            self.nodes, self.obs,
        )
        self.client = ClusterClient(
            self.clock, self.loop, self.fabric,
            self.mdm, self.nodes, self.obs,
        )
        if not self.passthrough:
            self.mdm.start()
            for node_id in node_ids:
                self.nodes[node_id].start_heartbeats(
                    self.loop, self.mdm, self.fabric
                )

    # ------------------------------------------------------------------
    # Convenience accessors

    @property
    def solo(self):
        """The single engine of a passthrough cluster."""
        return next(iter(self.nodes.values())).array

    def node(self, node_id):
        return self.nodes[node_id]

    # ------------------------------------------------------------------
    # Client verbs

    def create_volume(self, volume, size):
        if self.passthrough:
            return self.solo.create_volume(volume, size)
        epoch, replicas = self.mdm.create_volume(volume, size)
        self.client.refresh()
        return replicas

    def write(self, volume, offset, data, advance_clock=True):
        if self.passthrough:
            return self.solo.write(volume, offset, data,
                                   advance_clock=advance_clock)
        latency = self.client.write(volume, offset, data,
                                    advance_clock=advance_clock)
        self.pump()
        return latency

    def read(self, volume, offset, length, advance_clock=True):
        if self.passthrough:
            return self.solo.read(volume, offset, length,
                                  advance_clock=advance_clock)
        result = self.client.read(volume, offset, length,
                                  advance_clock=advance_clock)
        self.pump()
        return result

    # ------------------------------------------------------------------
    # Management verbs (service front end / mgmt API)

    def unmap(self, volume, offset, length):
        if self.passthrough:
            return self.solo.unmap(volume, offset, length)
        result = self.client.manage(volume, "handle_unmap",
                                    volume, offset, length)
        self.pump()
        return result

    def snapshot(self, volume, snapshot_name):
        """Point-in-time image on every serving replica of ``volume``."""
        if self.passthrough:
            return self.solo.snapshot(volume, snapshot_name)
        result = self.client.manage(volume, "handle_snapshot",
                                    volume, snapshot_name)
        self.pump()
        return result

    def destroy_snapshot(self, volume, snapshot_name):
        if self.passthrough:
            return self.solo.destroy_snapshot(volume, snapshot_name)
        result = self.client.manage(volume, "handle_destroy_snapshot",
                                    volume, snapshot_name)
        self.pump()
        return result

    def clone(self, volume, snapshot_name, new_volume):
        """Writable clone, *pinned* to the parent's replica set.

        The snapshot's bytes already live on the parent's replicas;
        pinning makes the clone free (metadata only) instead of a
        cross-array copy. The MDM records the pinned placement and the
        clone's clean set mirrors the parent's.
        """
        if self.passthrough:
            return self.solo.clone(volume, snapshot_name, new_volume)
        result = self.client.manage(volume, "handle_clone",
                                    volume, snapshot_name, new_volume)
        self.mdm.clone_volume(volume, snapshot_name, new_volume)
        self.client.refresh()
        self.pump()
        return result

    def destroy_volume(self, volume):
        if self.passthrough:
            return self.solo.destroy_volume(volume)
        result = self.client.manage(volume, "handle_destroy_volume", volume)
        self.mdm.destroy_volume(volume)
        self.client.refresh()
        self.pump()
        return result

    def reduction_report(self):
        """Cluster-wide reduction accounting: alive members summed."""
        if self.passthrough:
            return self.solo.reduction_report()
        from repro.core.telemetry import ReductionReport

        fields = [0, 0, 0, 0, 0]
        for node in self.nodes.values():
            if not node.alive:
                continue
            report = node.array.reduction_report()
            fields[0] += report.logical_live_bytes
            fields[1] += report.unique_logical_bytes
            fields[2] += report.physical_stored_bytes
            fields[3] += report.physical_with_parity_bytes
            fields[4] += report.provisioned_bytes
        return ReductionReport(*fields)

    # ------------------------------------------------------------------
    # Simulated-time control

    def pump(self):
        """Dispatch every event due at or before the current sim time."""
        return self.loop.run(until=self.clock.now)

    def advance(self, seconds):
        """Advance simulated time, dispatching heartbeats/ticks/copies."""
        return self.loop.run(until=self.clock.now + seconds)

    def settle(self, max_seconds=60.0):
        """Advance until the cluster is quiescent: no active partitions,
        no suspect members, and no refresh copies in flight. Bounded by
        ``max_seconds`` of simulated time; returns the seconds spent.

        Dead members stay dead (only a revive brings them back) and do
        not block settling.
        """
        if self.passthrough:
            return 0.0
        start = self.clock.now
        step = HEARTBEAT_INTERVAL
        while self.clock.now - start < max_seconds:
            if not self.fabric.active_isolations() \
                    and not self.mdm.pending_copies() \
                    and not any(
                        self.mdm.status(n) == SUSPECT
                        for n in self.nodes
                    ):
                break
            self.advance(step)
        return self.clock.now - start

    # ------------------------------------------------------------------
    # Fault entry points (used by the chaos harness's cluster target)

    def kill(self, node_id):
        """Crash a whole member array (its substrate survives)."""
        self.nodes[node_id].kill()

    def revive(self, node_id):
        """Recover a killed member; it heartbeats and rejoins dirty."""
        self.nodes[node_id].revive()

    def partition(self, node_id, seconds):
        """Isolate a member off the fabric for ``seconds`` of sim time."""
        until = self.fabric.isolate(node_id, seconds)
        self.obs.event("cluster.partition", node=node_id, until=until)
        return until

    # ------------------------------------------------------------------
    # Observability

    def enable_tracing(self):
        """Turn on span collection cluster-wide (client, MDM, nodes)."""
        self.obs.enable_tracing()
        for node in self.nodes.values():
            node.obs.enable_tracing()
        return self

    def observe_sample(self):
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if node.alive:
                node.array.observe_sample()

    def export_obs(self, directory, prefix="cluster"):
        """Write the shared trace + cluster metrics JSONL artifacts."""
        from repro.obs.export import dump_run

        return dump_run(self.obs, directory, prefix=prefix)
