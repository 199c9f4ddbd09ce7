"""Fault plans: declarative, seeded schedules of component failures.

A :class:`FaultPlan` is an ordered list of :class:`FaultSpec`s keyed by
*operation index* — the nth client operation the harness will issue.
Keying by op index (rather than wall time) makes plans deterministic
regardless of how latencies accumulate, which is what makes same-seed
replay byte-identical.

Fault taxonomy (each maps to a mechanism in the injector):

========================  ====================================================
``drive-fail``            whole-drive death (the Section 1 pulled-drive demo)
``corrupt-burst``         latent-sector corruption: the next N reads of one
                          drive return corrupted data (rotting flash)
``stall-storm``           firmware stall: reads of one drive stall for a
                          simulated-time window (Section 2.1 misbehaviour)
``torn-flush``            the next segio flush persists only a subset of its
                          shards (power loss inside a stripe write); torn
                          shards read back as checksum failures
``nvram-torn``            controller crash inside an NVRAM commit, losing the
                          partially-appended record (un-acknowledged only)
``crash``                 controller crash at a named ``crashpoint(...)``
========================  ====================================================
"""

from dataclasses import dataclass, field

from repro.sim.rand import RandomStream

DRIVE_FAIL = "drive-fail"
CORRUPT_BURST = "corrupt-burst"
STALL_STORM = "stall-storm"
TORN_FLUSH = "torn-flush"
NVRAM_TORN = "nvram-torn"
CRASH = "crash"
# Cluster-level kinds (fired by the chaos harness's cluster target, see
# repro.cluster.chaos): a whole-array controller kill, the matching
# revive, and a timed network partition isolating one array.
ARRAY_KILL = "array-kill"
ARRAY_REVIVE = "array-revive"
NET_PARTITION = "net-partition"

FAULT_KINDS = (
    DRIVE_FAIL,
    CORRUPT_BURST,
    STALL_STORM,
    TORN_FLUSH,
    NVRAM_TORN,
    CRASH,
    ARRAY_KILL,
    ARRAY_REVIVE,
    NET_PARTITION,
)

#: Kinds a cluster-level plan may schedule. ``drive-fail`` rides along
#: with an ``<array>:<drive>`` target so a cluster schedule also pushes
#: individual member arrays onto their degradation ladders.
CLUSTER_FAULT_KINDS = (ARRAY_KILL, NET_PARTITION, DRIVE_FAIL)

#: Crashpoints a generated plan may crash at. Every entry is a named
#: hook instrumented through the write/flush/GC paths; see
#: :class:`repro.faults.injector.CrashpointRouter` call sites.
CRASHPOINT_CHOICES = (
    "datapath.write-start",
    "datapath.post-commit",
    "datapath.post-process",
    "segwriter.pre-flush",
    "segwriter.mid-flush",
    "segwriter.post-flush",
    "gc.pre-collect",
    "gc.post-rewrite",
    "gc.pre-release",
)

#: Every crashpoint name instrumented anywhere in the tree — the full
#: registry the ``name-registry-sync`` lint rule checks ``cp.hit("...")``
#: call sites against. :data:`CRASHPOINT_CHOICES` is the subset a
#: generated plan may schedule a ``crash`` at; the NVRAM pair is hit by
#: the ``nvram-torn`` mechanism instead (see
#: :meth:`repro.faults.injector.FaultInjector.on_crashpoint`).
CRASHPOINTS = CRASHPOINT_CHOICES + (
    "nvram.pre-append",
    "nvram.post-append",
)

#: Drive-affecting kinds: at most one may land per maintenance slot so a
#: scrub/rebuild pass always separates two shard-destroying events.
DESTRUCTIVE_KINDS = (DRIVE_FAIL, CORRUPT_BURST, STALL_STORM, TORN_FLUSH)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``at_op`` is the client-operation index at which the fault arms;
    ``target`` names a drive (drive faults) or a crashpoint (crashes);
    ``params`` carries kind-specific tuning (burst length, shard count,
    stall seconds) and stays hashable so plans can be compared.
    """

    at_op: int
    kind: str
    target: str = None
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError("unknown fault kind %r" % (self.kind,))


@dataclass
class FaultPlan:
    """An ordered fault schedule plus the seed that produced it."""

    specs: list = field(default_factory=list)
    seed: int = None

    def __iter__(self):
        return iter(self.specs)

    def __len__(self):
        return len(self.specs)

    def add(self, spec):
        self.specs.append(spec)
        self.specs.sort(key=lambda s: s.at_op)
        return self

    def kinds_used(self):
        return sorted({spec.kind for spec in self.specs})

    def due(self, op_index):
        """Specs arming at exactly ``op_index`` (plan is pre-sorted)."""
        return [spec for spec in self.specs if spec.at_op == op_index]

    # ------------------------------------------------------------------
    # Seeded generation

    @classmethod
    def generate(cls, seed, total_ops, drive_names, maintenance_every=40,
                 parity_shards=2, kinds=FAULT_KINDS, crash_budget=2):
        """Generate a randomized schedule that the array should survive.

        The schedule is built on a slot grid of ``maintenance_every``
        operations — the harness runs scrub + rebuild at every slot
        boundary — with the constraints that keep the plan inside the
        array's fault-tolerance budget:

        * at most one destructive (shard-losing) fault per slot, so a
          maintenance pass always repairs between two of them;
        * at most ``parity_shards`` whole-drive failures before a
          replace/rebuild cycle has run;
        * torn flushes drop at most ``parity_shards`` shards.

        Crashes and NVRAM tears are recoverable by design and land
        freely. Same (seed, total_ops, drives) → identical plan.
        """
        stream = RandomStream(seed).fork("fault-plan")
        plan = cls(seed=seed)
        slots = max(1, total_ops // maintenance_every)
        destructive = [k for k in kinds if k in DESTRUCTIVE_KINDS]
        drive_kills = 0
        for slot in range(slots):
            slot_start = slot * maintenance_every
            if not destructive:
                break
            kind = stream.choice(destructive)
            if kind == DRIVE_FAIL and drive_kills >= parity_shards:
                kind = CORRUPT_BURST  # budget spent; degrade to a burst
            # Land inside the slot, clear of the boundary maintenance.
            at_op = slot_start + stream.randint(2, max(3, maintenance_every - 4))
            if kind == DRIVE_FAIL:
                drive_kills += 1
                target = stream.choice(list(drive_names))
                plan.add(FaultSpec(at_op, DRIVE_FAIL, target))
            elif kind == CORRUPT_BURST:
                target = stream.choice(list(drive_names))
                burst = stream.randint(3, 8)
                plan.add(FaultSpec(at_op, CORRUPT_BURST, target, (burst,)))
            elif kind == STALL_STORM:
                target = stream.choice(list(drive_names))
                duration = round(stream.uniform(0.05, 0.5), 3)
                plan.add(FaultSpec(at_op, STALL_STORM, target, (duration,)))
            elif kind == TORN_FLUSH:
                shards = stream.randint(1, parity_shards)
                plan.add(FaultSpec(at_op, TORN_FLUSH, None, (shards,)))
        crash_kinds = [k for k in kinds if k in (CRASH, NVRAM_TORN)]
        if crash_kinds and crash_budget:
            for _ in range(crash_budget):
                kind = stream.choice(crash_kinds)
                at_op = stream.randint(1, max(2, total_ops - 2))
                if kind == CRASH:
                    point = stream.choice(CRASHPOINT_CHOICES)
                    plan.add(FaultSpec(at_op, CRASH, point))
                else:
                    plan.add(FaultSpec(at_op, NVRAM_TORN, None))
        return plan

    @classmethod
    def generate_cluster(cls, seed, total_ops, array_ids, drive_names=(),
                         maintenance_every=40, kinds=CLUSTER_FAULT_KINDS,
                         partition_seconds=2.5):
        """Generate a survivable cluster-level disruption schedule.

        The grid is pairs of maintenance slots: a disruption lands in
        the first slot of each pair, and the second slot is left clear
        so the cluster's detect→reroute→rebuild cycle completes before
        the next event — the cluster-level analogue of the single-array
        rule that a scrub pass separates two shard-destroying faults.
        Constraints that keep every schedule inside the cluster's
        replication budget (one array-sized failure domain at a time):

        * at most one array is down (killed or partitioned) at any op;
        * every ``array-kill`` is paired with an ``array-revive`` one
          maintenance slot later, so rebuild has a rejoin target;
        * partitions are timed (``params[0]`` sim seconds) and heal on
          their own, always inside the clear slot.

        ``drive-fail`` specs target ``<array>:<drive>`` so member arrays
        also visit their degradation-ladder states mid-schedule.
        Same (seed, total_ops, array_ids, drive_names) → identical plan.
        """
        stream = RandomStream(seed).fork("cluster-fault-plan")
        plan = cls(seed=seed)
        array_ids = list(array_ids)
        if len(array_ids) < 2:
            # A 1-array cluster has no survivable array-sized faults;
            # fall back to intra-array drive faults only.
            kinds = tuple(k for k in kinds if k == DRIVE_FAIL)
        pairs = max(1, total_ops // (2 * maintenance_every))
        usable = [k for k in kinds if k in CLUSTER_FAULT_KINDS]
        if DRIVE_FAIL in usable and not drive_names:
            usable = [k for k in usable if k != DRIVE_FAIL]
        for pair in range(pairs):
            if not usable:
                break
            slot_start = pair * 2 * maintenance_every
            at_op = slot_start + stream.randint(
                2, max(3, maintenance_every - 4)
            )
            kind = stream.choice(usable)
            if kind == ARRAY_KILL:
                target = stream.choice(array_ids)
                plan.add(FaultSpec(at_op, ARRAY_KILL, target))
                plan.add(FaultSpec(
                    min(at_op + maintenance_every, total_ops - 1),
                    ARRAY_REVIVE, target,
                ))
            elif kind == NET_PARTITION:
                target = stream.choice(array_ids)
                duration = round(stream.uniform(
                    0.5 * partition_seconds, partition_seconds), 3)
                plan.add(FaultSpec(at_op, NET_PARTITION, target, (duration,)))
            elif kind == DRIVE_FAIL:
                target = "%s:%s" % (stream.choice(array_ids),
                                    stream.choice(list(drive_names)))
                plan.add(FaultSpec(at_op, DRIVE_FAIL, target))
        return plan
