"""Drive-health state machine (paper Section 5.1).

Purity treats drives as unreliable components: flash rots, firmware
stalls, whole devices die. Rather than trusting a drive until it fails
outright, the array grades every drive from its observed read outcomes:

* ``HEALTHY`` — the steady state.
* ``SUSPECT`` — the drive returned enough corrupted reads, or enough
  *unexplained* stalled reads, inside a sliding window that the array
  stops trusting it: the segment reader shortens its retry budget (fail
  fast, reconstruct from the other shards), the hedge policy races
  reconstruction against every read of it, and maintenance watches it
  closely. Suspicion is a statement about the window, not a latch: once
  the windowed integrity score and the windowed stall count have both
  fallen back under their thresholds the drive reads ``HEALTHY`` again.
* ``FAILED`` — chronic *integrity* misbehaviour (corrupted reads,
  exhausted retries) while suspect; the array fails the drive
  proactively, exactly as if it had been pulled, and schedules a
  rebuild. Proactive failure turns a slowly-rotting drive (which would
  keep feeding the erasure code corrupted shards) into the clean
  one-drive-down case the 7+2 code is designed for. Terminal until the
  drive is replaced (:meth:`DriveHealthMonitor.reset`). Stalls alone
  never fail a drive: latency is a suspicion signal, not proof of rot.

Two evidence classes feed the machine. *Integrity* events (corrupted
reads, exhausted retries) always count. Of the *stalls*, only those the
array did not schedule count: a read that collides with one of the
array's own segment programs pays ``write_interference_stall`` by
design (Section 4.4) — the device is doing what its data sheet says,
and the array put the program there — so the segment reader does not
report it (see :class:`repro.ssd.device.ReadResult`). Counting those
made most of a fault-free shelf suspect after one preload.

All thresholds are event counts inside a simulated-time window, so the
machine is deterministic for a given workload and seed: a drive's state
is a function of its two ledgers and the clock, whoever asks and
however often.
"""

from collections import deque
from dataclasses import dataclass, field

from repro.perf import PERF

HEALTHY = "healthy"
SUSPECT = "suspect"
FAILED = "failed"

#: Weight of an exhausted-retry fallback relative to one corrupted read.
_EXHAUSTED_WEIGHT = 2
#: Weighted integrity events in the window before HEALTHY → SUSPECT.
SUSPECT_THRESHOLD = 4
#: Weighted integrity events in the window before SUSPECT → FAILED.
FAIL_THRESHOLD = 12
#: Unexplained stalls in the window before HEALTHY → SUSPECT. Much
#: higher than the integrity threshold: one slow read is noise, a storm
#: is a signal.
STALL_SUSPECT_THRESHOLD = 24
#: The sliding window both ledgers are counted over, in sim seconds.
WINDOW_SECONDS = 300.0


@dataclass
class DriveHealth:
    """Observed-health record for one drive."""

    name: str
    state: str = HEALTHY
    corrupted_reads: int = 0
    stalled_reads: int = 0
    exhausted_retries: int = 0
    suspect_since: float = None
    #: Sim time through which the ledgers still support ``SUSPECT``;
    #: past it the suspicion has lapsed (refreshed on every event).
    suspect_until: float = None
    failed_at: float = None
    #: (timestamp, weight, region) of recent integrity events inside
    #: the window.
    events: deque = field(default_factory=deque)
    #: Timestamps of recent unexplained stalls (separate ledger: stalls
    #: can raise suspicion but never fail a drive). Keeps recording
    #: while the drive is suspect, so a continuing storm holds the
    #: suspicion up.
    stall_events: deque = field(default_factory=deque)

    def counters(self):
        return {
            "state": self.state,
            "corrupted_reads": self.corrupted_reads,
            "stalled_reads": self.stalled_reads,
            "exhausted_retries": self.exhausted_retries,
        }


class DriveHealthMonitor:
    """Healthy ⇄ suspect → failed, driven by read outcomes.

    The segment reader reports every corrupted read, unexplained stall,
    and exhausted retry here; the monitor escalates state, lets a
    suspicion lapse once its window has emptied, and, on the
    suspect → failed transition, invokes ``on_auto_fail(drive_name)``
    (the array wires this to its drive-failure path). The caller is
    responsible for running the rebuild that the auto-fail makes
    necessary — see :meth:`PurityArray.service_health`.
    """

    def __init__(self, clock, on_auto_fail=None):
        self.clock = clock
        self.on_auto_fail = on_auto_fail
        self._drives = {}
        self.auto_failed = []  # drive names, in failure order

    def health_of(self, drive_name):
        record = self._drives.get(drive_name)
        if record is None:
            record = DriveHealth(drive_name)
            self._drives[drive_name] = record
        return record

    def state_of(self, drive_name):
        return self._settled(self.health_of(drive_name)).state

    def is_suspect(self, drive_name):
        """O(1), and for a healthy drive one lookup and one compare:
        the segment reader asks once per device read."""
        record = self.health_of(drive_name)
        return record.state == SUSPECT and self._settled(record).state == SUSPECT

    # ------------------------------------------------------------------
    # Event intake (called from the segment reader)

    def note_corrupted(self, drive_name, region=None):
        """``region`` identifies the damaged area (e.g. a write unit):
        re-reading one bad spot scores once per window — a single torn
        or rotten unit is data damage, not evidence the whole drive is
        dying. Corruption across *distinct* regions keeps scoring."""
        record = self.health_of(drive_name)
        record.corrupted_reads += 1
        PERF.incr("health-corrupted-read")
        self._bad_event(record, weight=1, region=region)

    def note_stalled(self, drive_name):
        record = self.health_of(drive_name)
        record.stalled_reads += 1
        PERF.incr("health-stalled-read")
        self._stall_event(record)

    def note_exhausted(self, drive_name, region=None):
        """All retries burned; the read fell through to reconstruction."""
        record = self.health_of(drive_name)
        record.exhausted_retries += 1
        PERF.incr("health-retries-exhausted")
        self._bad_event(
            record,
            weight=_EXHAUSTED_WEIGHT,
            region=None if region is None else ("exhausted", region),
        )

    def note_failed(self, drive_name):
        """The drive failed outright (pulled, or auto-failed elsewhere)."""
        record = self.health_of(drive_name)
        if record.state != FAILED:
            record.state = FAILED
            record.failed_at = self.clock.now

    def reset(self, drive_name):
        """A replacement drive starts with a clean record."""
        self._drives.pop(drive_name, None)

    # ------------------------------------------------------------------
    # State machine

    def _settled(self, record):
        """``record`` with a lapsed suspicion written back as HEALTHY.

        Every query and every event goes through here first, so the
        stored state is only ever a cache of (ledgers, clock): asking
        twice, or not at all, changes no later answer — which keeps
        :meth:`HedgePolicy.should_hedge` pure in effect.
        """
        if record.state == SUSPECT and self.clock.now > record.suspect_until:
            record.state = HEALTHY
            record.suspect_since = None
        return record

    def _suspect_until(self, record):
        """Sim time through which a ledger still reaches its suspect
        threshold: the stamp of the event that completes the threshold
        counting back from the newest, plus the window."""
        stamp = float("-inf")
        if len(record.stall_events) >= STALL_SUSPECT_THRESHOLD:
            # Indexed from the right end: O(threshold) however long a
            # storm has made the ledger.
            stamp = record.stall_events[-STALL_SUSPECT_THRESHOLD]
        score = 0
        for event_stamp, weight, _region in reversed(record.events):
            score += weight
            if score >= SUSPECT_THRESHOLD:
                stamp = max(stamp, event_stamp)
                break
        return stamp + WINDOW_SECONDS

    def _reassess(self, record, now):
        """HEALTHY → SUSPECT, or push an existing suspicion's lapse out,
        from the ledgers as they stand after a new event."""
        until = self._suspect_until(record)
        if until < now:
            return  # neither ledger reaches its threshold in the window
        if record.state == HEALTHY:
            record.state = SUSPECT
            record.suspect_since = now
            PERF.incr("health-drive-suspected")
        record.suspect_until = until

    def _bad_event(self, record, weight, region=None):
        if self._settled(record).state == FAILED:
            return
        now = self.clock.now
        horizon = now - WINDOW_SECONDS
        while record.events and record.events[0][0] < horizon:
            record.events.popleft()
        if region is not None and any(
            r == region for _t, _w, r in record.events
        ):
            return  # the same damaged spot scored already this window
        record.events.append((now, weight, region))
        score = sum(w for _t, w, _r in record.events)
        if record.state == SUSPECT and score >= FAIL_THRESHOLD:
            record.state = FAILED
            record.failed_at = now
            record.events.clear()
            self.auto_failed.append(record.name)
            PERF.incr("health-drive-auto-failed")
            if self.on_auto_fail is not None:
                self.on_auto_fail(record.name)
        else:
            self._reassess(record, now)

    def _stall_event(self, record):
        """Stall storms raise suspicion; they never fail a drive."""
        if self._settled(record).state == FAILED:
            return
        now = self.clock.now
        record.stall_events.append(now)
        horizon = now - WINDOW_SECONDS
        while record.stall_events[0] < horizon:
            record.stall_events.popleft()
        self._reassess(record, now)

    # ------------------------------------------------------------------
    # Reporting

    def report(self):
        """drive name -> health counters, for telemetry/chaos reports."""
        return {
            name: self._settled(record).counters()
            for name, record in sorted(self._drives.items())
        }

    def suspects(self):
        return [
            record.name
            for record in self._drives.values()
            if self._settled(record).state == SUSPECT
        ]

    def stall_pressure(self, drive_name):
        """Unexplained stalls recorded inside the sliding window
        (0 = calm; ``STALL_SUSPECT_THRESHOLD`` or more = suspect).

        A support-facing signal: telemetry surfaces it next to the
        hedge counters so "which drive is stalling right now" is one
        lookup. Stalls behind the array's own segment programs are not
        in it — they happen on perfectly healthy drives during every
        flush, and counting them would make fault-free runs suspect and
        hedge (the device counter ``stalled_reads`` has them all).
        """
        record = self._drives.get(drive_name)
        if record is None:
            return 0
        horizon = self.clock.now - WINDOW_SECONDS
        return sum(1 for stamp in record.stall_events if stamp >= horizon)
