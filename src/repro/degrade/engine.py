"""DegradeEngine: the array's write-path degradation ladder.

One engine per array keeps one explicit state machine:

    normal -> nvram-degraded -> reduced-parity -> read-only

Each rung is *evidence-driven*: a condition is raised when the
substrate shows it and cleared only when the matching repair completes.

- an NVRAM mirror tear (or a boot onto a torn NVRAM) raises
  ``nvram-torn`` → the write path drops to write-through (every commit
  is pushed straight to flash) until a checkpoint repairs the mirror;
- a failed drive or a stripe flushed at reduced width raises
  ``parity-reduced`` → writes continue, every degraded stripe is
  tracked, and rebuild clears it;
- detected beyond-parity loss raises ``detected-loss`` → the array pins
  read-only (writes raise :class:`ReadOnlyModeError`; reads keep being
  served and report loss honestly).

The state is always the highest rung any active condition demands, and
the machine moves one adjacent rung at a time, never skipping a state
in either direction, so observers see every intermediate mode. Descent
only ever happens through the matching ``note_*`` repair call —
checkpoint for NVRAM, completed rebuild for parity, an explicit
operator acknowledgement for loss — which is what makes "never descends
except via repair" testable.

Repair debt is counted from what the engine already tracks: NVRAM
records a recovery replayed while the mirror is torn, and degraded
stripes not yet rewritten at full width.
"""

from dataclasses import dataclass

from repro.errors import ReadOnlyModeError
from repro.obs.trace import NULL_OBS

#: Ladder states, least to most degraded. The string values are the
#: client-visible mode names used in reports, events, and gauges.
NORMAL = "normal"
NVRAM_DEGRADED = "nvram-degraded"
REDUCED_PARITY = "reduced-parity"
READ_ONLY = "read-only"

LADDER_STATES = (NORMAL, NVRAM_DEGRADED, REDUCED_PARITY, READ_ONLY)

#: state -> rung index (0 = healthy).
RUNG = {state: index for index, state in enumerate(LADDER_STATES)}

#: Conditions that pin the ladder at (at least) a given rung.
COND_NVRAM = "nvram-torn"
COND_PARITY = "parity-reduced"
COND_LOSS = "detected-loss"

_CONDITION_RUNG = {
    COND_NVRAM: RUNG[NVRAM_DEGRADED],
    COND_PARITY: RUNG[REDUCED_PARITY],
    COND_LOSS: RUNG[READ_ONLY],
}


@dataclass(frozen=True)
class LadderTransition:
    """One single-rung step of the ladder, stamped in sim time."""

    time: float
    from_state: str
    to_state: str
    reason: str


class DegradeEngine:
    """Tracks array-wide degradation state and repair debt."""

    def __init__(self, clock, obs=NULL_OBS):
        self.clock = clock
        self.obs = obs
        self.state = NORMAL
        #: Every step ever taken, in order (adjacent rungs only).
        self.transitions = []
        self._conditions = {}  # active condition -> reason raised
        self._replay_debt = 0
        self._degraded_segments = set()
        self._failed_drives = set()
        self.write_through_drains = 0

    # -- state views ---------------------------------------------------
    @property
    def rung(self):
        return RUNG[self.state]

    @property
    def read_only(self):
        return self.state == READ_ONLY

    @property
    def write_through(self):
        """True while the NVRAM mirror is torn: commits flush eagerly."""
        return COND_NVRAM in self._conditions

    @property
    def degraded_segments(self):
        return frozenset(self._degraded_segments)

    @property
    def failed_drives(self):
        return frozenset(self._failed_drives)

    def active_conditions(self):
        """Active condition names, most severe first."""
        return sorted(self._conditions, key=lambda c: -_CONDITION_RUNG[c])

    def repair_debt(self):
        """Outstanding repair by category; a settled category is left
        out."""
        debt = {}
        if self._replay_debt:
            debt["nvram-replay"] = self._replay_debt
        if self._degraded_segments:
            debt["segments"] = len(self._degraded_segments)
        return debt

    def check_writable(self):
        """Raise :class:`ReadOnlyModeError` when the ladder pins writes."""
        if self.read_only:
            raise ReadOnlyModeError(
                "array is read-only (degradation ladder at %r): %s"
                % (self.state, self._conditions.get(COND_LOSS, ""))
            )

    # -- damage intake -------------------------------------------------
    def note_drive_failed(self, drive_name):
        self._failed_drives.add(drive_name)
        self._raise(COND_PARITY, "drive-failed:%s" % drive_name)

    def note_unsurvivable(self, reason):
        """Detected beyond-parity damage: pin the array read-only."""
        self._raise(COND_LOSS, reason)

    def note_nvram_tear(self, pending_records=0):
        """The NVRAM mirror tore; ``pending_records`` need replay."""
        self._raise(COND_NVRAM, "nvram-tear")
        if pending_records > 0:
            self._replay_debt += pending_records
            self._publish_debt()

    def note_degraded_stripe(self, segment_id):
        """A stripe exists at reduced width (flush skipped failed drives
        or a rebuild scan found a placement on a missing drive)."""
        if segment_id not in self._degraded_segments:
            self._degraded_segments.add(segment_id)
            self._publish_debt()
        self._raise(COND_PARITY, "degraded-stripe:%d" % segment_id)

    # -- repair completion ---------------------------------------------
    def note_write_through_drain(self):
        """A write-through commit reached flash: replay debt is moot."""
        self.write_through_drains += 1
        self._settle_replay()
        self.obs.metrics.counter("degrade.write_through").inc()

    def note_nvram_repaired(self):
        """Checkpoint persisted everything the torn mirror covered."""
        self._settle_replay()
        self._clear(COND_NVRAM, "checkpoint-repair")

    def note_segment_reprotected(self, segment_id):
        """Rebuild/GC rewrote one degraded stripe at full width."""
        if segment_id in self._degraded_segments:
            self._degraded_segments.discard(segment_id)
            self._publish_debt()

    def note_parity_restored(self):
        """A full rebuild pass found nothing degraded on live drives."""
        self._failed_drives.clear()
        if self._degraded_segments:
            self._degraded_segments.clear()
            self._publish_debt()
        self._clear(COND_PARITY, "rebuild-complete")

    def acknowledge_loss_repair(self, reason="operator-verified"):
        """Operator-style acknowledgement that lost ranges were handled
        (restored from replica or accepted); re-enables writes."""
        self._clear(COND_LOSS, reason)

    # -- reporting -----------------------------------------------------
    def report(self):
        return {
            "state": self.state,
            "rung": self.rung,
            "conditions": {
                cond: self._conditions[cond]
                for cond in self.active_conditions()
            },
            "transitions": len(self.transitions),
            "write_through": self.write_through,
            "write_through_drains": self.write_through_drains,
            "repair_debt": self.repair_debt(),
            "degraded_segments": sorted(self._degraded_segments),
            "failed_drives": sorted(self._failed_drives),
        }

    # -- the ladder ----------------------------------------------------
    def _raise(self, condition, reason):
        """Record damage evidence (the first reason sticks)."""
        if condition not in self._conditions:
            self._conditions[condition] = reason
            self._settle(reason)

    def _clear(self, condition, reason):
        """Record repair completion; the only path that descends."""
        if self._conditions.pop(condition, None) is not None:
            self._settle(reason)

    def _settle(self, reason):
        """Step one adjacent rung at a time toward the demanded rung."""
        target = max(
            (_CONDITION_RUNG[c] for c in self._conditions), default=0
        )
        obs = self.obs
        while RUNG[self.state] != target:
            step = 1 if target > RUNG[self.state] else -1
            transition = LadderTransition(
                time=self.clock.now,
                from_state=self.state,
                to_state=LADDER_STATES[RUNG[self.state] + step],
                reason=reason,
            )
            self.state = transition.to_state
            self.transitions.append(transition)
            obs.metrics.gauge("degrade.ladder_state").set(self.rung)
            obs.metrics.counter("degrade.transitions").inc()
            obs.event(
                "degrade.transition",
                from_state=transition.from_state,
                to_state=transition.to_state,
                reason=reason,
            )

    def _settle_replay(self):
        if self._replay_debt:
            self._replay_debt = 0
            self._publish_debt()

    def _publish_debt(self):
        self.obs.metrics.gauge("degrade.repair_debt").set(
            self._replay_debt + len(self._degraded_segments)
        )
