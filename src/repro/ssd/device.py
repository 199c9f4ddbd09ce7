"""The simulated SSD: real bytes, simulated time.

The device stores actual data (so the storage engine above it is
verified end-to-end) and charges simulated latency for every operation.
The timing model reproduces the behaviours the paper builds around:

* per-die parallelism — concurrent operations to different dies overlap,
  so peak throughput needs a deep queue (Section 2.1);
* program/erase interference — reads landing on a device that is busy
  writing see multi-millisecond stalls, motivating Purity's
  read-around-writes scheduler (Section 4.4);
* random-write penalties via the FTL model (Section 3.3);
* wear-dependent page loss via :class:`~repro.ssd.wear.WearTracker`
  (Section 5.1), surfaced as ``corrupted`` reads the erasure code above
  must repair.
"""

from dataclasses import dataclass, field

from repro.errors import DeviceFailedError
from repro.sim.distributions import LogNormal
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.geometry import SSDGeometry
from repro.ssd.store import SparseByteStore
from repro.ssd.wear import WearTracker
from repro.units import MIB, MICROSECOND


@dataclass(frozen=True)
class SSDTiming:
    """Service-time parameters for a consumer MLC SATA SSD.

    Values are representative of 2014-era drives: ~90 µs page reads,
    ~500 MB/s reads and ~350 MB/s writes over a ~550 MB/s SATA link,
    erase ~3 ms, and reads that collide with an in-progress program
    stalling by a couple of milliseconds.
    """

    read_base: float = 90 * MICROSECOND
    read_sigma: float = 0.20
    read_bandwidth: float = 500 * MIB
    program_base: float = 800 * MICROSECOND
    write_bandwidth: float = 350 * MIB
    bus_bandwidth: float = 550 * MIB
    erase_latency: float = 3000 * MICROSECOND
    write_interference_stall: float = 2500 * MICROSECOND

    def read_latency_distribution(self):
        """Distribution of the fixed (non-transfer) part of a page read."""
        return LogNormal(self.read_base, self.read_sigma)


@dataclass
class ReadResult:
    """Outcome of an SSD read: payload, charged latency, corruption flag.

    A stalled read says *why* it stalled, because the two causes mean
    opposite things to the array above. ``program_stall``: the read
    landed inside one of the array's own program windows and paid
    ``write_interference_stall`` — normal device behaviour (Section
    4.4; SimpleSSD and Amber model the same read-behind-program wait),
    scheduled by the array itself, so no evidence against the drive.
    ``unscheduled_stall``: the drive added a delay the array did not
    schedule (today only the fault model's ``extra_stall``) — the kind
    the health monitor counts. A read can be both.
    """

    data: bytes
    latency: float
    corrupted: bool = False
    program_stall: bool = False
    unscheduled_stall: bool = False

    @property
    def stalled(self):
        return self.program_stall or self.unscheduled_stall


@dataclass
class DeviceCounters:
    """Operation counters for telemetry and tests.

    ``stalled_reads`` counts every stalled read, whatever the cause
    (see :class:`ReadResult`); the health monitor's own
    ``stalled_reads`` counts only the unscheduled ones.
    """

    reads: int = 0
    writes: int = 0
    discards: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    corrupted_reads: int = 0
    stalled_reads: int = 0
    extra: dict = field(default_factory=dict)


class SimulatedSSD:
    """One simulated flash drive."""

    def __init__(
        self,
        name,
        clock,
        stream,
        geometry=None,
        timing=None,
        rated_pe_cycles=3000,
    ):
        self.name = name
        self.clock = clock
        self.stream = stream
        self.geometry = geometry or SSDGeometry()
        self.timing = timing or SSDTiming()
        self.store = SparseByteStore()
        self.ftl = FlashTranslationLayer(self.geometry)
        self.wear = WearTracker(self.geometry, rated_pe_cycles)
        self.counters = DeviceCounters()
        self.failed = False
        #: Optional fault-injection hook (see :mod:`repro.faults`):
        #: consulted inside read/write/discard so injected faults land
        #: in the device timeline, not around it.
        self.fault_model = None
        self._read_latency = self.timing.read_latency_distribution()
        self._die_busy_until = {}  # per-die: programs/erases (FIFO)
        self._die_reads_until = {}  # per-die: priority reads (FIFO)
        self._die_windows = {}  # per-die (begin, end) program windows
        self._writing_windows = []  # device-wide program windows
        self._bus_busy_until = 0.0

    @property
    def capacity_bytes(self):
        """Raw device capacity."""
        return self.geometry.capacity_bytes

    def fail(self):
        """Mark the drive failed; all subsequent operations raise."""
        self.failed = True
        self.store.clear()

    def _check_alive(self):
        if self.failed:
            raise DeviceFailedError("SSD %s has failed" % self.name)

    def busy_writing(self, now=None):
        """True if a segment write is in flight (Section 4.4 scheduler cue).

        Staggered flushes create disjoint program windows; the device is
        busy only while a window is open.
        """
        if now is None:
            now = self.clock.now
        self._writing_windows = [
            (start, end) for start, end in self._writing_windows if end > now
        ]
        return any(start <= now < end for start, end in self._writing_windows)

    def estimated_read_wait(self, offset, now=None):
        """Predicted queueing/stall delay for a read at ``offset``.

        The hedged-read policy consults this before issuing a direct
        read, so it must be *pure*: same-seed traces with hedging on
        and off have to stay byte-identical when no hedge fires. It
        therefore recomputes the busy-window overlap without the cache
        pruning :meth:`busy_writing` performs, never touches the RNG
        stream, and asks the fault model for a stall *preview* rather
        than firing :meth:`on_read` side effects.
        """
        if now is None:
            now = self.clock.now
        wait = 0.0
        if any(start <= now < end for start, end in self._writing_windows):
            wait += self.timing.write_interference_stall
        die = self.geometry.die_of(offset)
        started_until = max(
            (
                end
                for begin, end in self._die_windows.get(die, ())
                if begin <= now
            ),
            default=0.0,
        )
        queued = max(self._die_reads_until.get(die, 0.0), started_until)
        if queued > now:
            wait += queued - now
        if self._bus_busy_until > now:
            wait += self._bus_busy_until - now
        if self.fault_model is not None:
            peek = getattr(self.fault_model, "peek_stall", None)
            if peek is not None:
                wait += peek(self, now)
        return wait

    def queue_depth(self, now=None):
        """Number of dies with work scheduled past ``now``.

        A cheap instantaneous depth proxy for the observability series:
        each die whose program/erase queue or read queue extends into
        the future counts as one outstanding unit of work.
        """
        if now is None:
            now = self.clock.now
        depth = 0
        for until in self._die_busy_until.values():
            if until > now:
                depth += 1
        for until in self._die_reads_until.values():
            if until > now:
                depth += 1
        return depth

    def _note_writing_window(self, start, end):
        self._writing_windows.append((start, end))
        if len(self._writing_windows) > 64:
            del self._writing_windows[:32]

    def _charge_bus(self, start, nbytes):
        """Serialize transfer over the SATA link; returns transfer end."""
        transfer = nbytes / self.timing.bus_bandwidth
        begin = max(start, self._bus_busy_until)
        self._bus_busy_until = begin + transfer
        return self._bus_busy_until

    def _die_dispatch(self, offset, nbytes, service, start_at=None,
                      priority=False):
        """Queue a ``service``-second op on the die owning ``offset``.

        Returns (begin, end). Operations on the same die serialize;
        different dies run in parallel. ``start_at`` defers the
        operation's earliest start (staggered segment flushes).

        ``priority=True`` models NCQ-style read priority: the op waits
        only for work that has *started*, slotting ahead of background
        programs still scheduled for the future. Reads that do land
        inside a started program window pay the interference stall —
        exactly the hazard the Section 4.4 scheduler reconstructs
        around.
        """
        die = self.geometry.die_of(offset)
        earliest = self.clock.now if start_at is None else max(
            self.clock.now, start_at
        )
        if priority:
            started_until = max(
                (
                    end
                    for begin, end in self._die_windows.get(die, ())
                    if begin <= earliest
                ),
                default=0.0,
            )
            begin = max(earliest, self._die_reads_until.get(die, 0.0),
                        started_until)
            end = begin + service
            self._die_reads_until[die] = end
            return begin, end
        begin = max(earliest, self._die_busy_until.get(die, 0.0))
        end = begin + service
        self._die_busy_until[die] = end
        windows = self._die_windows.setdefault(die, [])
        windows.append((begin, end))
        if len(windows) > 32:
            del windows[:16]
        return begin, end

    def read(self, offset, nbytes):
        """Read bytes; returns a :class:`ReadResult` with charged latency."""
        self._check_alive()
        self.geometry.check_range(offset, nbytes)
        now = self.clock.now
        service = self._read_latency.sample(self.stream)
        service += self.ftl.maybe_stall(self.stream)
        program_stall = self.busy_writing(now)
        if program_stall:
            service += self.timing.write_interference_stall
        unscheduled_stall = False
        _begin, flash_done = self._die_dispatch(
            offset, nbytes, service, priority=True
        )
        done = self._charge_bus(flash_done, nbytes)
        latency = done - now
        corrupted = self._sample_corruption(offset, nbytes, now)
        if self.fault_model is not None:
            forced_corrupt, extra_stall = self.fault_model.on_read(
                self, offset, nbytes, now
            )
            corrupted = corrupted or forced_corrupt
            if extra_stall > 0.0:
                latency += extra_stall
                unscheduled_stall = True
        data = self.store.read(offset, nbytes)
        self.counters.reads += 1
        self.counters.bytes_read += nbytes
        if corrupted:
            self.counters.corrupted_reads += 1
        if program_stall or unscheduled_stall:
            self.counters.stalled_reads += 1
        return ReadResult(
            data=data,
            latency=latency,
            corrupted=corrupted,
            program_stall=program_stall,
            unscheduled_stall=unscheduled_stall,
        )

    def _sample_corruption(self, offset, nbytes, now):
        for erase_block in self.geometry.erase_blocks_spanned(offset, nbytes):
            probability = self.wear.page_loss_probability(erase_block, now)
            if probability > 0.0 and self.stream.random() < probability:
                return True
        return False

    def write(self, offset, data, start_at=None):
        """Program bytes; returns charged latency in seconds.

        ``start_at`` optionally defers the program's earliest start
        (staggered segment flushes); the returned latency is measured
        from now regardless.
        """
        self._check_alive()
        nbytes = len(data)
        self.geometry.check_range(offset, nbytes)
        now = self.clock.now
        flash_bytes = self.ftl.note_write(offset, nbytes)
        service = self.timing.program_base + flash_bytes / self.timing.write_bandwidth
        service += self.ftl.maybe_stall(self.stream)
        begin, flash_done = self._die_dispatch(
            offset, nbytes, service, start_at=start_at
        )
        done = self._charge_bus(flash_done, nbytes)
        self._note_writing_window(begin, done)
        for erase_block in self.geometry.erase_blocks_spanned(offset, nbytes):
            self.wear.note_program(erase_block, now)
        if self.fault_model is not None:
            self.fault_model.on_write(self, offset, nbytes)
        self.store.write(offset, data)
        self.counters.writes += 1
        self.counters.bytes_written += nbytes
        return done - now

    def discard(self, offset, nbytes):
        """TRIM a range, erasing the spanned erase blocks.

        Purity only discards whole allocation units, which are erase
        block multiples, so the whole spanned range is erased.
        """
        self._check_alive()
        self.geometry.check_range(offset, nbytes)
        now = self.clock.now
        blocks = self.geometry.erase_blocks_spanned(offset, nbytes)
        service = self.timing.erase_latency * max(1, len(blocks))
        begin, done = self._die_dispatch(offset, max(nbytes, 1), service)
        self._note_writing_window(begin, done)
        for erase_block in blocks:
            self.wear.note_erase(erase_block, now)
        if self.fault_model is not None:
            self.fault_model.on_discard(self, offset, nbytes)
        self.ftl.note_discard(offset, nbytes)
        self.store.discard(offset, nbytes)
        self.counters.discards += 1
        return done - now

    def __repr__(self):
        state = "FAILED" if self.failed else "ok"
        return "SimulatedSSD(%s, %d bytes, %s)" % (
            self.name,
            self.geometry.capacity_bytes,
            state,
        )
