"""The chaos verification harness.

Runs a deterministic client workload (YCSB-style zipfian reads/writes
plus OLTP-style read-modify-writes) against a live array while a
:class:`~repro.faults.injector.FaultInjector` fires a seeded
:class:`~repro.faults.plan.FaultPlan`, and asserts the availability
contract the paper claims:

* **byte-exact reads** — every read returns exactly the bytes an oracle
  says were last acknowledged (a write interrupted by a crash may
  surface either its old or its new content, but the first read pins
  the outcome and all later reads must agree);
* **fault tolerance** — any schedule inside the parity budget (at most
  two concurrent shard losses) completes with zero violations;
* **crash consistency** — every injected controller crash recovers
  inside the 30 s client I/O timeout (Section 4.3);
* **self-healing** — scrubbing and rebuild repair everything the
  schedule corrupted: the final sweep reaches zero corrupt shards and
  full 7+2 placement on alive drives;
* **no silent loss** — schedules *beyond* the parity budget must raise
  :class:`~repro.errors.DataLossError` / ``UncorrectableError``
  (detected loss), never return wrong bytes.

Same seed → same plan → same fault trace (:meth:`ChaosReport.trace`),
which is what makes a chaos failure debuggable: replay the seed and
every fault fires at the identical op index and simulated time.
"""

from dataclasses import dataclass, field

from repro.core.array import PurityArray
from repro.core.config import ArrayConfig
from repro.core.ha import CLIENT_TIMEOUT_SECONDS
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
    crashes: int = 0
    recoveries: int = 0
    #: Per-recovery downtime in simulated seconds (each < 30 s).
    downtimes: list = field(default_factory=list)
    faults_fired: int = 0
    kinds_used: list = field(default_factory=list)
    drives_replaced: int = 0
    segments_rebuilt: int = 0
    scrub_passes: int = 0
    #: Final-sweep scrub passes needed to reach zero corrupt shards.
    repair_passes: int = 0
    #: Set when the run ended in *detected* data loss (only legal for
    #: schedules beyond the parity budget).
    data_loss: str = None
    violations: list = field(default_factory=list)
    #: The comparable fault trace (same seed → identical list).
    trace: list = field(default_factory=list)
    #: Degradation-ladder state -> byte-exact read checks performed
    #: while the array was in that state (the "detected loss is never
    #: wrong bytes" invariant is asserted per state, not just overall).
    reads_by_state: dict = field(default_factory=dict)
    #: Every ladder state any controller of this run ever visited.
    ladder_states: list = field(default_factory=list)

    @property
    def max_downtime(self):
        return max(self.downtimes, default=0.0)


class ChaosHarness:
    """One seeded chaos run: workload + fault plan + invariant checks."""

    #: Sample the observability series (queue depth, cache hit rate)
    #: every this many client ops when tracing is enabled.
    SAMPLE_EVERY = 5

    def __init__(self, seed, plan=None, total_ops=200, record_size=4096,
                 record_slots=16, maintenance_every=40,
                 expect_data_loss=False, tracing=False):
        self.seed = seed
        self.config = ArrayConfig.small(seed=seed)
        self.total_ops = total_ops
        self.record_size = record_size
        self.record_slots = record_slots
        self.maintenance_every = maintenance_every
        #: Schedules beyond the parity budget are expected to *detect*
        #: loss; surviving one silently would itself be a bug, but the
        #: harness only asserts the never-wrong-bytes half.
        self.expect_data_loss = expect_data_loss
        self.array = PurityArray.create(self.config)
        #: The run-wide observability handle: survives controller
        #: failovers (threaded through recovery), so one chaos run is
        #: one trace. Deterministic: same seed → byte-identical JSONL.
        self.obs = self.array.obs
        if tracing:
            self.obs.enable_tracing()
        self.volume = "chaos0"
        self.array.create_volume(self.volume, record_slots * record_size)
        if plan is None:
            plan = FaultPlan.generate(
                seed,
                total_ops,
                sorted(self.array.drives),
                maintenance_every=maintenance_every,
                parity_shards=self.config.segment_geometry.parity_shards,
            )
        self.plan = plan
        self.injector = FaultInjector(plan).attach(self.array)
        self._wstream = RandomStream(seed).fork("chaos-workload")
        self._mstream = RandomStream(seed).fork("chaos-maintenance")
        #: Oracle: slot -> set of byte strings the slot may legally hold.
        #: One element normally; two while a crash-interrupted write is
        #: unresolved (the first read observation pins it back to one).
        self._possible = {}
        self.report = ChaosReport(seed=seed)

    # ------------------------------------------------------------------
    # Oracle

    def _slot_possible(self, slot):
        values = self._possible.get(slot)
        if values is None:
            values = {bytes(self.record_size)}  # never written: zeros
            self._possible[slot] = values
        return values

    def _check_read(self, where, slot, data):
        """Byte-exact invariant; pins crash-ambiguous slots.

        Tagged with the current degradation-ladder state so the report
        proves the invariant held in *every* mode the run visited, not
        just in aggregate.
        """
        state = self.array.degrade.state
        self.report.reads_by_state[state] = (
            self.report.reads_by_state.get(state, 0) + 1
        )
        possible = self._slot_possible(slot)
        if data not in possible:
            self._violate(
                "byte-exact-read",
                "%s slot %d returned %d bytes matching none of the %d "
                "acknowledged candidates (ladder state %s)"
                % (where, slot, len(data), len(possible), state),
            )
        self._possible[slot] = {data}

    def _violate(self, invariant, detail):
        self.report.violations.append((invariant, detail))
        PERF.incr("chaos-invariant-violation")
        raise InvariantViolation(invariant, detail)

    # ------------------------------------------------------------------
    # Crash / recovery

    def _collect_ladder_states(self):
        """Fold the current controller's ladder history into the report.

        Called before each failover and at run end: each controller has
        its own ladder (rebuilt from substrate evidence at boot), so the
        run-wide "states visited" set is the union over controllers.
        """
        seen = set(self.report.ladder_states)
        ladder = self.array.degrade.ladder
        seen.add(ladder.state)
        seen.update(t.to_state for t in ladder.transitions)
        seen.update(t.from_state for t in ladder.transitions)
        from repro.degrade.ladder import RUNG

        self.report.ladder_states = sorted(seen, key=RUNG.__getitem__)

    def _recover(self):
        """Fail the controller over the surviving substrate."""
        self.report.crashes += 1
        PERF.incr("chaos-crash")
        self._collect_ladder_states()
        shelf, boot_region, clock = self.array.crash()
        before = clock.now
        array, _report = PurityArray.recover(
            self.config, shelf, boot_region, clock, obs=self.obs
        )
        downtime = clock.now - before
        self.report.recoveries += 1
        self.report.downtimes.append(downtime)
        if downtime >= CLIENT_TIMEOUT_SECONDS:
            self._violate(
                "recovery-within-client-timeout",
                "recovery took %.3f s (timeout %.0f s)"
                % (downtime, CLIENT_TIMEOUT_SECONDS),
            )
        self.array = array
        # Re-arm against the new controller: drive-level damage (torn
        # ranges, burst counters) carries over, as on-media state would.
        self.injector.attach(array)

    # ------------------------------------------------------------------
    # Workload

    def _payload(self, op, slot):
        """Deterministic record content, mixed compressibility."""
        if self._wstream.random() < 0.3:
            return self._wstream.randbytes(self.record_size)
        pattern = b"chaos-%d-%d-%d|" % (self.seed, op, slot)
        reps = self.record_size // len(pattern) + 1
        return (pattern * reps)[: self.record_size]

    def _run_op(self, op):
        roll = self._wstream.random()
        slot = self._wstream.zipf_index(self.record_slots)
        offset = slot * self.record_size
        if roll < READ_FRACTION:
            self.report.reads += 1
            data, _latency = self.array.read(
                self.volume, offset, self.record_size
            )
            self._check_read("op %d" % op, slot, data)
            return
        if roll < READ_FRACTION + RMW_FRACTION:
            # OLTP-style read-modify-write: validate, transform, write.
            self.report.rmws += 1
            data, _latency = self.array.read(
                self.volume, offset, self.record_size
            )
            self._check_read("rmw %d" % op, slot, data)
            payload = data[::-1]
        else:
            self.report.writes += 1
            payload = self._payload(op, slot)
        try:
            self.array.write(self.volume, offset, payload)
        except InjectedCrashError:
            # The crash may have landed before or after the NVRAM
            # commit: both contents are legal until a read pins one.
            possible = set(self._slot_possible(slot))
            possible.add(payload)
            self._possible[slot] = possible
            self._recover()
        else:
            self._possible[slot] = {payload}

    # ------------------------------------------------------------------
    # Maintenance

    def _replace_failed_drives(self):
        for name in sorted(self.array.drives):
            if self.array.drives[name].failed:
                self.array.replace_drive(name)
                self.report.drives_replaced += 1
                PERF.incr("chaos-drive-replaced")
        self.injector.refresh_drives()

    def _maintenance(self):
        """Slot-boundary upkeep: replace, rebuild, scrub, sometimes GC.

        Any step may hit an armed crashpoint; the harness recovers and
        retries, exactly as a real array's background services restart
        after failover.
        """
        for _attempt in range(3):
            try:
                if self.injector.has_armed_tear:
                    # A tear armed this slot but no flush has landed
                    # yet: drain so it fires now, where the scrub
                    # below can repair it — otherwise it would tear a
                    # stripe *after* this maintenance pass, with the
                    # next slot's fault free to take a third shard.
                    self.array.drain()
                self._replace_failed_drives()
                self.report.segments_rebuilt += self.array.service_health()
                self.report.segments_rebuilt += self.array.rebuild()
                if self._mstream.random() < 0.5:
                    self.array.run_gc()
                if self._mstream.random() < 0.34:
                    self.array.checkpoint()
                # Scrub last: maintenance exits with the array verified
                # clean, so two destructive faults always have a repair
                # between them.
                scrub = self.array.scrub()
                self.report.scrub_passes += 1
                if scrub.corrupt_shards or scrub.parity_mismatches:
                    PERF.incr("chaos-scrub-found-damage")
                return
            except InjectedCrashError:
                self._recover()
        self._violate(
            "maintenance-convergence",
            "maintenance crashed on three consecutive attempts",
        )

    # ------------------------------------------------------------------
    # Final verification

    def _final_verify(self):
        self._maintenance()
        # The scrubber must repair every injected corruption: repeated
        # passes converge to zero corrupt shards (bursts drain, torn
        # stripes are evacuated and their AUs erased).
        for sweep in range(4):
            scrub = self.array.scrub()
            self.report.scrub_passes += 1
            self.report.repair_passes = sweep + 1
            if not scrub.corrupt_shards and not scrub.parity_mismatches:
                break
        else:
            self._violate(
                "scrubber-repairs-injected-damage",
                "corruption still visible after %d scrub sweeps"
                % self.report.repair_passes,
            )
        # Full protection restored: every segment lives on alive drives.
        for fact in self.array.tables.segments.scan():
            for drive_name, _au in fact.value[0]:
                drive = self.array.drives.get(drive_name)
                if drive is None or drive.failed:
                    self._violate(
                        "full-protection-restored",
                        "segment %d still places a shard on dead drive %s"
                        % (fact.key[0], drive_name),
                    )
        # Byte-exact read-back of the whole keyspace through a fresh
        # read path (any surviving in-doubt slots get pinned here).
        for slot in range(self.record_slots):
            data, _latency = self.array.read(
                self.volume, slot * self.record_size, self.record_size
            )
            self._check_read("final", slot, data)

    # ------------------------------------------------------------------
    # Entry point

    def run(self):
        """Execute the schedule; returns the :class:`ChaosReport`.

        Raises :class:`InvariantViolation` the moment an invariant
        breaks. Detected data loss (``DataLossError`` on an
        over-budget schedule) ends the run cleanly with
        ``report.data_loss`` set; on a survivable schedule it is a
        violation — the array must ride out anything inside the parity
        budget.
        """
        try:
            for op in range(self.total_ops):
                self.injector.advance_to_op(op)
                try:
                    self._run_op(op)
                except InjectedCrashError:
                    # A crash on the read path (e.g. an armed GC
                    # crashpoint hit by a flush a read triggered).
                    self._recover()
                self.report.ops += 1
                PERF.incr("chaos-op")
                if self.obs.tracing and (op + 1) % self.SAMPLE_EVERY == 0:
                    self.array.observe_sample()
                if (op + 1) % self.maintenance_every == 0:
                    self._maintenance()
            for _attempt in range(3):
                try:
                    self._final_verify()
                    break
                except InjectedCrashError:
                    # A still-armed crashpoint fired inside the final
                    # sweep (e.g. during a scrub-triggered evacuation).
                    self._recover()
            else:
                self._violate(
                    "final-verify-convergence",
                    "final verification crashed on three attempts",
                )
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
        self._collect_ladder_states()
        self.report.faults_fired = self.injector.faults_fired
        self.report.kinds_used = self.plan.kinds_used()
        self.report.trace = self.injector.trace_keys()
        return self.report

    def export_obs(self, directory, prefix="chaos"):
        """Write the run's trace + metrics JSONL under ``directory``.

        Returns (trace_path, metrics_path). Same seed → byte-identical
        trace file, which is the artifact CI uploads from chaos lanes.
        """
        from repro.obs.export import dump_run

        return dump_run(self.obs, directory, prefix=prefix)
