"""Cluster-level chaos: kill whole arrays mid-workload, prove the ack.

The cluster analogue of :class:`repro.faults.chaos.ChaosHarness`: a
seeded zipfian workload runs against a :class:`~repro.cluster.cluster.
Cluster` while a :meth:`FaultPlan.generate_cluster
<repro.faults.plan.FaultPlan.generate_cluster>` schedule fires
array-kills, timed network partitions, and per-array drive failures.
The invariants asserted are the cluster-grade versions of the paper's
availability contract:

* **zero acknowledged-write loss** — every read returns exactly the
  bytes of the last *acknowledged* write to that slot (the ack means
  every serving replica held the bytes, so one array-sized failure
  cannot lose them); checks are tagged with the serving node's
  degradation-ladder state, extending the single-array "detected loss
  is never wrong bytes" oracle per state across nodes;
* **bounded reroute** — every primary failover the client waits out
  completes within ``REROUTE_BOUND`` simulated seconds;
* **replay determinism** — the fired-fault trace
  (:class:`~repro.faults.injector.FaultEvent` keys) is identical for
  identical seeds, making any cluster chaos failure replayable.
"""

from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster
from repro.cluster.config import HEARTBEAT_INTERVAL, REROUTE_BOUND, ClusterConfig
from repro.cluster.mdm import ALIVE
from repro.errors import DataLossError, UncorrectableError
from repro.faults.injector import FaultEvent
from repro.faults.plan import (
    ARRAY_KILL,
    ARRAY_REVIVE,
    DRIVE_FAIL,
    NET_PARTITION,
    FaultPlan,
)
from repro.perf import PERF
from repro.sim.rand import RandomStream

#: The workload: zipfian ops over ``NUM_VOLUMES`` volumes of
#: ``RECORD_SLOTS`` records of ``RECORD_SIZE`` bytes, ``READ_FRACTION``
#: of them reads.
NUM_VOLUMES = 4
RECORD_SIZE = 2048
RECORD_SLOTS = 8
READ_FRACTION = 0.4


class ClusterInvariantViolation(AssertionError):
    """A cluster chaos invariant broke (also recorded on the report)."""

    def __init__(self, invariant, detail):
        super().__init__("%s: %s" % (invariant, detail))
        self.invariant = invariant
        self.detail = detail


@dataclass
class ClusterChaosReport:
    """Everything one cluster chaos run observed."""

    seed: int = None
    ops: int = 0
    reads: int = 0
    writes: int = 0
    kills: int = 0
    revives: int = 0
    partitions: int = 0
    drive_fails: int = 0
    failovers: int = 0
    #: Per-failover reroute durations in simulated seconds.
    reroute_times: list = field(default_factory=list)
    stale_retries: int = 0
    volumes_moved: int = 0
    bytes_copied: int = 0
    #: Ladder state of the serving node -> byte-exact checks done there.
    reads_by_state: dict = field(default_factory=dict)
    #: Set when the run ended in *detected* loss (never legal under the
    #: generated one-failure-at-a-time schedules).
    data_loss: str = None
    violations: list = field(default_factory=list)
    #: Comparable fired-fault trace: same seed → identical list.
    trace: list = field(default_factory=list)

    @property
    def max_reroute(self):
        return max(self.reroute_times, default=0.0)


class ClusterChaosHarness:
    """One seeded cluster chaos run: workload + fault plan + invariants."""

    SAMPLE_EVERY = 8

    def __init__(self, seed, num_arrays=3, total_ops=240,
                 maintenance_every=40, tracing=False):
        self.seed = seed
        self.total_ops = total_ops
        self.maintenance_every = maintenance_every
        self.cluster = Cluster(ClusterConfig(num_arrays=num_arrays, seed=seed))
        self.obs = self.cluster.obs
        if tracing:
            self.cluster.enable_tracing()
        self.volumes = ["cvol%d" % i for i in range(NUM_VOLUMES)]
        for volume in self.volumes:
            self.cluster.create_volume(volume, RECORD_SLOTS * RECORD_SIZE)
        first = next(iter(self.cluster.nodes.values()))
        self.plan = FaultPlan.generate_cluster(
            seed,
            total_ops,
            sorted(self.cluster.nodes),
            drive_names=sorted(first.array.drives),
            maintenance_every=maintenance_every,
        )
        self._wstream = RandomStream(seed).fork("cluster-chaos-workload")
        #: Oracle: (volume, slot) -> the exact acknowledged bytes.
        self._expected = {}
        self._events = []
        self.report = ClusterChaosReport(seed=seed)

    # ------------------------------------------------------------------
    # Oracle

    def _slot_expected(self, volume, slot):
        key = (volume, slot)
        if key not in self._expected:
            self._expected[key] = bytes(RECORD_SIZE)
        return self._expected[key]

    def _check_read(self, where, volume, slot, data):
        state = self.cluster.nodes[self.cluster.client.last_read_node] \
            .degrade_state
        self.report.reads_by_state[state] = (
            self.report.reads_by_state.get(state, 0) + 1
        )
        expected = self._slot_expected(volume, slot)
        if data != expected:
            self._violate(
                "zero-acked-write-loss",
                "%s %s slot %d returned wrong bytes (ladder state %s, "
                "served by %s)" % (where, volume, slot, state,
                                   self.cluster.client.last_read_node),
            )

    def _violate(self, invariant, detail):
        self.report.violations.append((invariant, detail))
        PERF.incr("cluster-chaos-invariant-violation")
        raise ClusterInvariantViolation(invariant, detail)

    # ------------------------------------------------------------------
    # Fault firing

    def _record(self, op, spec):
        event = FaultEvent(op, self.cluster.clock.now, spec.kind,
                           spec.target, tuple(spec.params))
        self._events.append(event)
        if self.obs.tracing:
            self.obs.event("fault", kind=spec.kind, target=spec.target)
        PERF.incr("cluster-chaos-fault")

    def _fire(self, op, spec):
        if spec.kind == ARRAY_KILL:
            self.cluster.kill(spec.target)
            self.report.kills += 1
        elif spec.kind == ARRAY_REVIVE:
            self.cluster.revive(spec.target)
            self.report.revives += 1
        elif spec.kind == NET_PARTITION:
            self.cluster.partition(spec.target, spec.params[0])
            self.report.partitions += 1
        elif spec.kind == DRIVE_FAIL:
            node_id, drive = spec.target.split(":", 1)
            node = self.cluster.nodes[node_id]
            if node.alive and drive in node.array.drives \
                    and not node.array.drives[drive].failed:
                node.array.fail_drive(drive)
                self.report.drive_fails += 1
            else:
                return  # node down or drive already failed: no-op
        self._record(op, spec)

    # ------------------------------------------------------------------
    # Workload

    def _payload(self, op, volume, slot):
        if self._wstream.random() < 0.3:
            return self._wstream.randbytes(RECORD_SIZE)
        pattern = b"cluster-%d-%d-%s-%d|" % (
            self.seed, op, volume.encode("ascii"), slot
        )
        reps = RECORD_SIZE // len(pattern) + 1
        return (pattern * reps)[: RECORD_SIZE]

    def _run_op(self, op):
        flat = self._wstream.zipf_index(len(self.volumes) * RECORD_SLOTS)
        volume = self.volumes[flat // RECORD_SLOTS]
        slot = flat % RECORD_SLOTS
        offset = slot * RECORD_SIZE
        if self._wstream.random() < READ_FRACTION:
            self.report.reads += 1
            data, _latency = self.cluster.read(volume, offset, RECORD_SIZE)
            self._check_read("op %d" % op, volume, slot, data)
        else:
            self.report.writes += 1
            payload = self._payload(op, volume, slot)
            self.cluster.write(volume, offset, payload)
            # The ack landed on every serving replica: this is now the
            # only legal content for the slot.
            self._expected[(volume, slot)] = payload

    # ------------------------------------------------------------------
    # Maintenance

    def _node_maintenance(self):
        """Per-array upkeep: replace failed drives, rebuild, scrub."""
        for node_id in sorted(self.cluster.nodes):
            node = self.cluster.nodes[node_id]
            if not node.alive:
                continue
            for drive_name in sorted(node.array.drives):
                if node.array.drives[drive_name].failed:
                    node.array.replace_drive(drive_name)
            node.array.service_health()
            node.array.rebuild()
            node.array.scrub()

    def _maintenance(self):
        """Slot-boundary upkeep: settle membership, then repair arrays.

        ``settle`` advances simulated time so partitions heal, silent
        members get declared dead, rejoins complete, and every refresh
        copy drains — the cluster-level scrub pass that separates two
        disruptions.
        """
        self.cluster.settle()
        self._node_maintenance()

    # ------------------------------------------------------------------
    # Final verification

    def _final_verify(self):
        self._maintenance()
        # Every volume's primary must be clean and alive, and every
        # slot must read back its acknowledged bytes through the
        # normal routed path.
        for volume in self.volumes:
            replicas = self.cluster.mdm.routing(volume)
            primary = replicas[0]
            if self.cluster.mdm.status(primary) != ALIVE:
                self._violate(
                    "primary-alive",
                    "volume %s routed to %s (%s)"
                    % (volume, primary, self.cluster.mdm.status(primary)),
                )
            if primary not in self.cluster.mdm.clean_replicas(volume):
                self._violate(
                    "primary-clean",
                    "volume %s primary %s is not in the clean set"
                    % (volume, primary),
                )
            for slot in range(RECORD_SLOTS):
                data, _latency = self.cluster.read(
                    volume, slot * RECORD_SIZE, RECORD_SIZE
                )
                self._check_read("final", volume, slot, data)

    # ------------------------------------------------------------------
    # Entry point

    def run(self):
        """Execute the schedule; returns the :class:`ClusterChaosReport`.

        Raises :class:`ClusterInvariantViolation` the moment an
        invariant breaks. Detected loss (``DataLossError``) is recorded
        and is itself a violation under the generated one-failure-at-a-
        time schedules — with synchronous replication, no single
        array-sized failure may lose an acknowledged write.
        """
        try:
            for op in range(self.total_ops):
                for spec in self.plan.due(op):
                    self._fire(op, spec)
                self._run_op(op)
                self.report.ops += 1
                PERF.incr("cluster-chaos-op")
                if self.obs.tracing and (op + 1) % self.SAMPLE_EVERY == 0:
                    self.cluster.observe_sample()
                if (op + 1) % self.maintenance_every == 0:
                    self._maintenance()
            self._final_verify()
        except (DataLossError, UncorrectableError) as exc:
            self.report.data_loss = str(exc)
            PERF.incr("cluster-chaos-data-loss-detected")
            self._violate(
                "zero-acked-write-loss",
                "detected loss under a survivable schedule: %s" % exc,
            )
        client = self.cluster.client
        self.report.failovers = len(client.reroute_times)
        self.report.reroute_times = list(client.reroute_times)
        self.report.stale_retries = int(
            self.obs.metrics.counter("cluster.stale_retries").value
        )
        self.report.volumes_moved = int(
            self.obs.metrics.counter(
                "cluster.rebalance.volumes_moved"
            ).value
        )
        self.report.bytes_copied = int(
            self.obs.metrics.counter(
                "cluster.rebalance.bytes_copied"
            ).value
        )
        self.report.trace = [event.key() for event in self._events]
        bound = REROUTE_BOUND + HEARTBEAT_INTERVAL
        for elapsed in self.report.reroute_times:
            if elapsed > bound:
                self._violate(
                    "bounded-reroute",
                    "failover took %.3f s (bound %.3f s)"
                    % (elapsed, bound),
                )
        return self.report

    def export_obs(self, directory, prefix="cluster-chaos"):
        """Write the run's trace + metrics JSONL under ``directory``."""
        return self.cluster.export_obs(directory, prefix=prefix)
