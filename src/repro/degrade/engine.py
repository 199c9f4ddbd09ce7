"""DegradeEngine: the façade the array wires through its data path.

One engine instance per array owns the :class:`DegradationLadder` and
:class:`RepairDebtLedger` and translates substrate events into ladder
conditions:

- an NVRAM mirror tear (or a boot onto a torn NVRAM) raises
  ``nvram-torn`` → the write path drops to write-through (every commit
  is pushed straight to flash) until a checkpoint repairs the mirror;
- a failed drive or a stripe flushed at reduced width raises
  ``parity-reduced`` → writes continue, every degraded stripe is
  charged to the ledger, and rebuild settles the debt;
- detected beyond-parity loss raises ``detected-loss`` → the array pins
  read-only (writes raise :class:`ReadOnlyModeError`; reads keep being
  served and report loss honestly).

De-escalation only ever happens through the matching ``note_*`` repair
call — checkpoint for NVRAM, completed rebuild for parity, an explicit
operator acknowledgement for loss — which is what makes the ladder's
"never descends except via repair" property testable.
"""

from repro.degrade.ladder import (
    COND_LOSS,
    COND_NVRAM,
    COND_PARITY,
    READ_ONLY,
    DegradationLadder,
    RepairDebtLedger,
)
from repro.errors import ReadOnlyModeError
from repro.obs.trace import NULL_OBS


class DegradeEngine:
    """Tracks array-wide degradation state and repair debt."""

    def __init__(self, clock, obs=NULL_OBS):
        self.clock = clock
        self.obs = obs
        self.ladder = DegradationLadder(clock, obs=obs)
        self.debt = RepairDebtLedger(obs=obs)
        self._degraded_segments = set()
        self._failed_drives = set()
        self.write_through_drains = 0

    # -- state views ---------------------------------------------------
    @property
    def state(self):
        return self.ladder.state

    @property
    def read_only(self):
        return self.ladder.state == READ_ONLY

    @property
    def write_through(self):
        """True while the NVRAM mirror is torn: commits flush eagerly."""
        return self.ladder.has_condition(COND_NVRAM)

    nvram_degraded = write_through

    @property
    def degraded_segments(self):
        return frozenset(self._degraded_segments)

    @property
    def failed_drives(self):
        return frozenset(self._failed_drives)

    def check_writable(self):
        """Raise :class:`ReadOnlyModeError` when the ladder pins writes."""
        if self.read_only:
            raise ReadOnlyModeError(
                "array is read-only (degradation ladder at %r): %s"
                % (self.ladder.state, self.ladder.condition_reason(COND_LOSS))
            )

    # -- damage intake -------------------------------------------------
    def note_drive_failed(self, drive_name):
        self._failed_drives.add(drive_name)
        self.ladder.raise_condition(
            COND_PARITY, "drive-failed:%s" % drive_name
        )

    def note_unsurvivable(self, reason):
        """Detected beyond-parity damage: pin the array read-only."""
        self.ladder.raise_condition(COND_LOSS, reason)

    def note_nvram_tear(self, pending_records=0):
        """The NVRAM mirror tore; ``pending_records`` need replay."""
        self.ladder.raise_condition(COND_NVRAM, "nvram-tear")
        if pending_records:
            self.debt.charge("nvram-replay", pending_records)

    def note_degraded_stripe(self, segment_id):
        """A stripe exists at reduced width (flush skipped failed drives
        or a rebuild scan found a placement on a missing drive)."""
        if segment_id not in self._degraded_segments:
            self._degraded_segments.add(segment_id)
            self.debt.charge("segments")
        self.ladder.raise_condition(
            COND_PARITY, "degraded-stripe:%d" % segment_id
        )

    # -- repair completion ---------------------------------------------
    def note_write_through_drain(self):
        """A write-through commit reached flash: replay debt is moot."""
        self.write_through_drains += 1
        self.debt.settle_all("nvram-replay")
        self.obs.metrics.counter("degrade.write_through").inc()

    def note_nvram_repaired(self):
        """Checkpoint persisted everything the torn mirror covered."""
        self.debt.settle_all("nvram-replay")
        self.ladder.clear_condition(COND_NVRAM, "checkpoint-repair")

    def note_segment_reprotected(self, segment_id):
        """Rebuild/GC rewrote one degraded stripe at full width."""
        if segment_id in self._degraded_segments:
            self._degraded_segments.discard(segment_id)
            self.debt.settle("segments")

    def note_parity_restored(self):
        """A full rebuild pass found nothing degraded on live drives."""
        self._failed_drives.clear()
        self._degraded_segments.clear()
        self.debt.settle_all("segments")
        self.ladder.clear_condition(COND_PARITY, "rebuild-complete")

    def acknowledge_loss_repair(self, reason="operator-verified"):
        """Operator-style acknowledgement that lost ranges were handled
        (restored from replica or accepted); re-enables writes."""
        self.ladder.clear_condition(COND_LOSS, reason)

    # -- reporting -----------------------------------------------------
    def report(self):
        return {
            "state": self.ladder.state,
            "rung": self.ladder.rung,
            "conditions": {
                cond: self.ladder.condition_reason(cond)
                for cond in self.ladder.active_conditions()
            },
            "transitions": len(self.ladder.transitions),
            "write_through": self.write_through,
            "write_through_drains": self.write_through_drains,
            "repair_debt": self.debt.snapshot(),
            "degraded_segments": sorted(self._degraded_segments),
            "failed_drives": sorted(self._failed_drives),
        }
