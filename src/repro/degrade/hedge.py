"""Deadline-aware hedged-read policy.

Paper §4.4: a read never waits on a drive that is busy with a program
or erase — it reconstructs the data from the other shards instead. The
existing read scheduler already *avoids* drives it knows are writing;
this policy covers the remaining tail: drives that are stalling for
reasons the scheduler cannot see up front (injected stall storms, deep
die queues, suspect devices). When the *predicted* wait for a direct
read crosses the configured sim-clock deadline — or the target drive is
currently suspect — the segment reader races a parity-reconstruct path
against the direct read and adopts whichever completes first.

What "suspect" means here is the health monitor's business
(:mod:`repro.core.health`), and two of its rules are what keep this
policy quiet on a healthy shelf. Reads that stall behind the array's
own segment programs are not evidence, so a fault-free run suspects no
drive and no hedge fires *on suspicion*; and suspicion lapses once its
evidence has aged out of the window, so a drive that rode out a storm
goes back to one device read per chunk instead of paying a
``data_shards``-read reconstruction beside every read until it is
replaced. The deadline trigger is independent of both: under enough
queue pressure the *predicted wait* alone can cross the deadline on a
fault-free shelf, and such a hedge usually loses, because the survivors
queue behind the same flush (counted in DESIGN.md, "Deadline-aware
hedged reads"; gating it on calm survivors is ROADMAP 3b's follow-up).

Determinism contract: :meth:`should_hedge` is pure. It only reads
device/health state (via :meth:`SimulatedSSD.estimated_read_wait`,
itself non-mutating, and :meth:`DriveHealthMonitor.is_suspect`, whose
answer is a function of the drive's ledgers and the clock alone) and
draws no randomness, so a run where no hedge fires is byte-identical to
the same run with hedging disabled.
"""

from repro.obs.trace import NULL_OBS


class HedgePolicy:
    """Decides when to race reconstruction against a direct read."""

    def __init__(self, clock, deadline, health=None, obs=NULL_OBS,
                 enabled=True):
        self.clock = clock
        self.deadline = deadline
        self.health = health
        self.obs = obs
        self.enabled = enabled
        #: Outcome counters (mirrored to ``hedge.*`` metrics).
        self.fired = 0
        self.won = 0
        self.lost = 0
        #: Device reads issued by losing arms — the cost of hedging.
        self.wasted = 0

    def predicted_wait(self, drive, offset):
        """The drive's own estimate of queueing/stall delay (pure)."""
        estimate = getattr(drive, "estimated_read_wait", None)
        if estimate is None:
            return 0.0
        return estimate(offset)

    def would_wait(self, drive, offset):
        """Deadline check alone — used to rank reconstruction sources.

        Deliberately independent of :attr:`enabled` so the candidate
        ordering inside reconstruction is identical with hedging on or
        off (part of the differential-trace guarantee).
        """
        return self.predicted_wait(drive, offset) >= self.deadline

    def should_hedge(self, drive, offset):
        """True when a direct read of ``offset`` deserves a hedge."""
        if not self.enabled:
            return False
        health = self.health
        if health is not None and health.is_suspect(drive.name):
            return True
        return self.would_wait(drive, offset)

    def note_fired(self):
        self.fired += 1
        self._counter("hedge.fired")

    def note_outcome(self, won, wasted):
        """Record which arm was adopted and what the loser cost:
        ``wasted`` is the device reads the losing arm actually issued
        (an arm that gave up short of ``data_shards`` costs less)."""
        if won:
            self.won += 1
            self._counter("hedge.won")
        else:
            self.lost += 1
            self._counter("hedge.lost")
        if wasted:
            self.wasted += wasted
            self._counter("hedge.wasted", wasted)

    def report(self):
        return {
            "enabled": self.enabled,
            "deadline": self.deadline,
            "fired": self.fired,
            "won": self.won,
            "lost": self.lost,
            "wasted": self.wasted,
        }

    def _counter(self, name, amount=1):
        self.obs.metrics.counter(name).inc(amount)
