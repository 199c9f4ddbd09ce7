"""The chaos verification harness: one workload and one oracle, two targets.

:class:`ChaosHarness` runs a deterministic client workload (YCSB-style
zipfian reads/writes plus OLTP-style read-modify-writes over a keyspace
of fixed-size records) against a *target* while the target fires a
seeded :class:`~repro.faults.plan.FaultPlan`, and asserts the
availability contract the paper claims:

* **byte-exact reads** — every read returns exactly the bytes an oracle
  says were last acknowledged (a write interrupted by a crash may
  surface either its old or its new content, but the first read pins
  the outcome and all later reads must agree); each check is tagged
  with the ladder state of whatever served the read;
* **bounded outages** — service returns inside the target's bound
  after every outage it rides out;
* **no silent loss** — schedules *beyond* the fault budget must raise
  :class:`~repro.errors.DataLossError` / ``UncorrectableError``
  (detected loss), never return wrong bytes.

A target carries only what differs between backends: how its faults
fire, how it comes back from a crash, its maintenance pass, its
end-of-run checks, and the bound on its outages.

* :class:`ArrayTarget` (the default) drives one array under a
  :class:`~repro.faults.injector.FaultInjector`: controller crashes
  recover inside the 30 s client I/O timeout (Section 4.3), any
  schedule inside the parity budget (at most two concurrent shard
  losses) completes, and scrubbing and rebuild repair everything the
  schedule corrupted — the final sweep reaches zero corrupt shards and
  full 7+2 placement on alive drives.
* :class:`repro.cluster.chaos.ClusterTarget` drives an RF=2 cluster
  through whole-array kills, revives and partitions; its outages are
  client failovers, bounded by the reroute bound.

Same seed → same plan → same fault trace (:attr:`ChaosReport.trace`),
which is what makes a chaos failure debuggable: replay the seed and
every fault fires at the identical op index and simulated time.
"""

from collections import Counter
from dataclasses import dataclass, field

from repro.core.array import PurityArray
from repro.core.config import ArrayConfig
from repro.core.ha import CLIENT_TIMEOUT_SECONDS
from repro.degrade.ladder import RUNG
from repro.errors import (
    DataLossError,
    InjectedCrashError,
    ReadOnlyModeError,
    UncorrectableError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.perf import PERF
from repro.sim.rand import RandomStream

#: The op mix: ``READ_FRACTION`` of the ops are reads and
#: ``RMW_FRACTION`` read-modify-writes; the rest are plain writes.
READ_FRACTION = 0.3
RMW_FRACTION = 0.15


class InvariantViolation(AssertionError):
    """A chaos invariant was broken (also recorded on the report)."""

    def __init__(self, invariant, detail):
        super().__init__("%s: %s" % (invariant, detail))
        self.invariant = invariant
        self.detail = detail


@dataclass
class ChaosReport:
    """Everything one chaos run observed."""

    seed: int = None
    ops: int = 0
    reads: int = 0
    writes: int = 0
    rmws: int = 0
    #: Simulated seconds until service returned, one entry per outage:
    #: a controller recovery on an array, a client failover on a cluster.
    outages: list = field(default_factory=list)
    faults_fired: int = 0
    kinds_used: list = field(default_factory=list)
    #: The target's own tallies: crashes, drives replaced, segments
    #: rebuilt, scrub passes, cluster faults by kind, volumes moved, ...
    counts: Counter = field(default_factory=Counter)
    #: Set when the run ended in *detected* data loss (only legal for
    #: schedules beyond the fault budget).
    data_loss: str = None
    violations: list = field(default_factory=list)
    #: The comparable fault trace (same seed → identical list).
    trace: list = field(default_factory=list)
    #: Degradation-ladder state -> byte-exact read checks performed
    #: while the serving array was in that state (the "detected loss is
    #: never wrong bytes" invariant is asserted per state, not just
    #: overall).
    reads_by_state: Counter = field(default_factory=Counter)
    #: Every ladder state any controller of this run ever visited.
    ladder_states: list = field(default_factory=list)

    @property
    def max_outage(self):
        return max(self.outages, default=0.0)

    def fold_ladder(self, ladder):
        """Add every state ``ladder`` has been in to :attr:`ladder_states`.

        Each controller has its own ladder (rebuilt from substrate
        evidence at boot), so targets fold a controller's ladder before
        it is replaced and every live one at run end.
        """
        seen = set(self.ladder_states)
        seen.add(ladder.state)
        seen.update(t.to_state for t in ladder.transitions)
        seen.update(t.from_state for t in ladder.transitions)
        self.ladder_states = sorted(seen, key=RUNG.__getitem__)


def replace_failed_drives(array, counts):
    """Swap a fresh drive into every failed slot of ``array``."""
    for name in sorted(array.drives):
        if array.drives[name].failed:
            array.replace_drive(name)
            counts["drives_replaced"] += 1
            PERF.incr("chaos-drive-replaced")


class ArrayTarget:
    """One array under a :class:`FaultInjector`; crashes fail the
    controller over to a new one on the surviving substrate.

    Target protocol (see :class:`repro.cluster.chaos.ClusterTarget` for
    the other implementation): ``backend`` serves ``create_volume``,
    ``read``, ``write`` and ``observe_sample``; ``arm`` settles the plan;
    ``advance_to_op``, ``ladder_state``, ``maintain``, ``final_checks``
    (yields ``(invariant, detail)`` pairs) and ``finish`` are called by
    the harness; ``fault_events`` lists the fired
    :class:`~repro.faults.injector.FaultEvent`. ``recover`` is needed
    only by a target whose faults raise ``InjectedCrashError``.
    """

    VOLUMES = ("chaos0",)
    RECORD_SIZE = 4096
    RECORD_SLOTS = 16
    OUTAGE_BOUND = CLIENT_TIMEOUT_SECONDS

    def __init__(self, seed, report, tracing):
        self.seed = seed
        self.report = report
        self.config = ArrayConfig.small(seed=seed)
        self.array = PurityArray.create(self.config)
        #: The run-wide observability handle: survives controller
        #: failovers (threaded through recovery), so one chaos run is
        #: one trace. Deterministic: same seed → byte-identical JSONL.
        self.obs = self.array.obs
        if tracing:
            self.obs.enable_tracing()
        self._mstream = RandomStream(seed).fork("chaos-maintenance")

    @property
    def backend(self):
        return self.array

    @property
    def fault_events(self):
        return self.injector.trace

    def arm(self, plan, total_ops, maintenance_every):
        if plan is None:
            plan = FaultPlan.generate(
                self.seed,
                total_ops,
                sorted(self.array.drives),
                maintenance_every=maintenance_every,
                parity_shards=self.config.segment_geometry.parity_shards,
            )
        self.injector = FaultInjector(plan).attach(self.array)
        return plan

    def advance_to_op(self, op):
        self.injector.advance_to_op(op)

    def ladder_state(self):
        return self.array.degrade.state

    def recover(self):
        """Fail the controller over the surviving substrate."""
        self.report.counts["crashes"] += 1
        PERF.incr("chaos-crash")
        self.report.fold_ladder(self.array.degrade.ladder)
        shelf, boot_region, clock = self.array.crash()
        before = clock.now
        self.array, _report = PurityArray.recover(
            self.config, shelf, boot_region, clock, obs=self.obs
        )
        self.report.outages.append(clock.now - before)
        # Re-arm against the new controller: drive-level damage (torn
        # ranges, burst counters) carries over, as on-media state would.
        self.injector.attach(self.array)

    def maintain(self):
        """Slot-boundary upkeep: replace, rebuild, scrub, sometimes GC."""
        counts = self.report.counts
        if self.injector.has_armed_tear:
            # A tear armed this slot but no flush has landed yet: drain
            # so it fires now, where the scrub below can repair it —
            # otherwise it would tear a stripe *after* this maintenance
            # pass, with the next slot's fault free to take a third shard.
            self.array.drain()
        replace_failed_drives(self.array, counts)
        self.injector.refresh_drives()
        counts["segments_rebuilt"] += self.array.service_health()
        counts["segments_rebuilt"] += self.array.rebuild()
        if self._mstream.random() < 0.5:
            self.array.run_gc()
        if self._mstream.random() < 0.34:
            self.array.checkpoint()
        # Scrub last: maintenance exits with the array verified clean,
        # so two destructive faults always have a repair between them.
        scrub = self.array.scrub()
        counts["scrub_passes"] += 1
        if scrub.corrupt_shards or scrub.parity_mismatches:
            PERF.incr("chaos-scrub-found-damage")

    def final_checks(self):
        counts = self.report.counts
        # The scrubber must repair every injected corruption: repeated
        # passes converge to zero corrupt shards (bursts drain, torn
        # stripes are evacuated and their AUs erased).
        for sweep in range(4):
            scrub = self.array.scrub()
            counts["scrub_passes"] += 1
            counts["repair_passes"] = sweep + 1
            if not scrub.corrupt_shards and not scrub.parity_mismatches:
                break
        else:
            yield ("scrubber-repairs-injected-damage",
                   "corruption still visible after %d scrub sweeps"
                   % counts["repair_passes"])
        # Full protection restored: every segment lives on alive drives.
        for fact in self.array.tables.segments.scan():
            for drive_name, _au in fact.value[0]:
                drive = self.array.drives.get(drive_name)
                if drive is None or drive.failed:
                    yield ("full-protection-restored",
                           "segment %d still places a shard on dead "
                           "drive %s" % (fact.key[0], drive_name))

    def finish(self):
        self.report.fold_ladder(self.array.degrade.ladder)


class ChaosHarness:
    """One seeded chaos run: workload + fault plan + invariant checks.

    ``target`` is the target class; the harness builds it from the seed.
    The keyspace is ``target.VOLUMES`` × ``record_slots`` records of
    ``record_size`` bytes (the target's defaults unless given).
    """

    #: Sample the observability series (queue depth, cache hit rate)
    #: every this many client ops when tracing is enabled.
    SAMPLE_EVERY = 5

    def __init__(self, seed, plan=None, total_ops=200, record_size=None,
                 record_slots=None, maintenance_every=40,
                 expect_data_loss=False, tracing=False, target=ArrayTarget):
        self.seed = seed
        self.total_ops = total_ops
        self.maintenance_every = maintenance_every
        #: Schedules beyond the fault budget are expected to *detect*
        #: loss; surviving one silently would itself be a bug, but the
        #: harness only asserts the never-wrong-bytes half.
        self.expect_data_loss = expect_data_loss
        self.report = ChaosReport(seed=seed)
        self.target = target(seed, self.report, tracing)
        self.obs = self.target.obs
        self.volumes = target.VOLUMES
        self.record_size = record_size or target.RECORD_SIZE
        self.record_slots = record_slots or target.RECORD_SLOTS
        for volume in self.volumes:
            self.target.backend.create_volume(
                volume, self.record_slots * self.record_size)
        self.plan = self.target.arm(plan, total_ops, maintenance_every)
        self._wstream = RandomStream(seed).fork("chaos-workload")
        #: Oracle: record -> set of byte strings the record may legally
        #: hold. One element normally; two while a crash-interrupted
        #: write is unresolved (the first read pins it back to one).
        self._possible = {}

    # ------------------------------------------------------------------
    # Oracle

    def _locate(self, record):
        """(volume, offset) of a record index in ``[0, keyspace)``."""
        volume, slot = divmod(record, self.record_slots)
        return self.volumes[volume], slot * self.record_size

    def _record_possible(self, record):
        # A record never written reads back as zeros.
        return self._possible.setdefault(record, {bytes(self.record_size)})

    def _read(self, where, record):
        """Read one record and check it; pins crash-ambiguous records.

        Tagged with the serving ladder state so the report proves the
        invariant held in *every* mode the run visited, not just in
        aggregate.
        """
        volume, offset = self._locate(record)
        data, _latency = self.target.backend.read(
            volume, offset, self.record_size)
        state = self.target.ladder_state()
        self.report.reads_by_state[state] += 1
        possible = self._record_possible(record)
        if data not in possible:
            self._violate(
                "byte-exact-read",
                "%s: %s offset %d returned %d bytes matching none of the "
                "%d acknowledged candidates (ladder state %s)"
                % (where, volume, offset, len(data), len(possible), state),
            )
        self._possible[record] = {data}
        return data

    def _violate(self, invariant, detail):
        self.report.violations.append((invariant, detail))
        PERF.incr("chaos-invariant-violation")
        raise InvariantViolation(invariant, detail)

    # ------------------------------------------------------------------
    # Workload

    def _payload(self, op, record):
        """Deterministic record content, mixed compressibility."""
        if self._wstream.random() < 0.3:
            return self._wstream.randbytes(self.record_size)
        pattern = b"chaos-%d-%d-%d|" % (self.seed, op, record)
        reps = self.record_size // len(pattern) + 1
        return (pattern * reps)[: self.record_size]

    def _run_op(self, op):
        roll = self._wstream.random()
        record = self._wstream.zipf_index(
            len(self.volumes) * self.record_slots)
        if roll < READ_FRACTION:
            self.report.reads += 1
            self._read("op %d" % op, record)
            return
        if roll < READ_FRACTION + RMW_FRACTION:
            # OLTP-style read-modify-write: validate, transform, write.
            self.report.rmws += 1
            payload = self._read("rmw %d" % op, record)[::-1]
        else:
            self.report.writes += 1
            payload = self._payload(op, record)
        try:
            self.target.backend.write(*self._locate(record), payload)
        except InjectedCrashError:
            # The crash may have landed before or after the NVRAM
            # commit: both contents are legal until a read pins one.
            self._possible[record] = self._record_possible(record) | {payload}
            self.target.recover()
        else:
            self._possible[record] = {payload}

    # ------------------------------------------------------------------
    # Maintenance and final verification

    def _retrying(self, step, invariant):
        """Run ``step``. An armed crashpoint it hits fails the controller
        over and the step runs again, exactly as a real array's
        background services restart after failover."""
        for _attempt in range(3):
            try:
                return step()
            except InjectedCrashError:
                self.target.recover()
        self._violate(invariant, "crashed on three consecutive attempts")

    def _maintenance(self):
        self._retrying(self.target.maintain, "maintenance-convergence")

    def _final_verify(self):
        self._maintenance()
        for invariant, detail in self.target.final_checks():
            self._violate(invariant, detail)
        # Byte-exact read-back of the whole keyspace through a fresh
        # read path (any surviving in-doubt records get pinned here).
        for record in range(len(self.volumes) * self.record_slots):
            self._read("final", record)

    # ------------------------------------------------------------------
    # Entry point

    def run(self):
        """Execute the schedule; returns the :class:`ChaosReport`.

        Raises :class:`InvariantViolation` the moment an invariant
        breaks (outage bounds are checked once, at the end). Detected
        data loss (``DataLossError`` on an over-budget schedule) ends
        the run cleanly with ``report.data_loss`` set; on a survivable
        schedule it is a violation — the target must ride out anything
        inside its fault budget.
        """
        try:
            for op in range(self.total_ops):
                self.target.advance_to_op(op)
                try:
                    self._run_op(op)
                except InjectedCrashError:
                    # A crash on the read path (e.g. an armed GC
                    # crashpoint hit by a flush a read triggered).
                    self.target.recover()
                self.report.ops += 1
                PERF.incr("chaos-op")
                if self.obs.tracing and (op + 1) % self.SAMPLE_EVERY == 0:
                    self.target.backend.observe_sample()
                if (op + 1) % self.maintenance_every == 0:
                    self._maintenance()
            # A still-armed crashpoint may fire inside the final sweep
            # (e.g. during a scrub-triggered evacuation).
            self._retrying(self._final_verify, "final-verify-convergence")
        except (DataLossError, UncorrectableError, ReadOnlyModeError) as exc:
            # ReadOnlyModeError is the write-path face of detected
            # loss: beyond-budget damage pinned the ladder read-only
            # and a client write was refused instead of being accepted
            # into an unprotectable stripe.
            self.report.data_loss = str(exc)
            PERF.incr("chaos-data-loss-detected")
            if not self.expect_data_loss:
                self._violate(
                    "survivable-schedule-survived",
                    "data loss on an in-budget schedule: %s" % exc,
                )
        self.target.finish()
        events = self.target.fault_events
        self.report.faults_fired = len(events)
        self.report.kinds_used = self.plan.kinds_used()
        self.report.trace = [event.key() for event in events]
        bound = self.target.OUTAGE_BOUND
        for seconds in self.report.outages:
            if seconds >= bound:
                self._violate(
                    "bounded-outage",
                    "service returned after %.3f s (bound %.3f s)"
                    % (seconds, bound),
                )
        return self.report

    def export_obs(self, directory, prefix="chaos"):
        """Write the run's trace + metrics JSONL under ``directory``.

        Returns (trace_path, metrics_path). Same seed → byte-identical
        trace file, which is the artifact CI uploads from chaos lanes.
        """
        from repro.obs.export import dump_run

        return dump_run(self.obs, directory, prefix=prefix)
