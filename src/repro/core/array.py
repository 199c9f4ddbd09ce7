"""The Purity array facade.

One :class:`PurityArray` is one controller's view of the appliance: the
shared substrate (drives, NVRAM, boot region) plus all in-memory state
(relations, dedup index, open segio). ``PurityArray.create`` builds a
fresh array; :meth:`crash` abandons the in-memory state, and
``PurityArray.recover`` (see :mod:`repro.core.recovery`) rebuilds a
controller over the surviving substrate — the same flow a controller
failover exercises.
"""

from repro.core import tables as T
from repro.core.commit import CommitPipeline
from repro.core.config import ArrayConfig
from repro.core.datapath import DataPath
from repro.core.gc import GarbageCollector
from repro.core.health import DriveHealthMonitor
from repro.core.scrubber import Scrubber
from repro.core.tables import TableSet
from repro.core.telemetry import ReductionReport
from repro.core.volume import VolumeManager
from repro.degrade import DegradeEngine, HedgePolicy, RebuildGovernor
from repro.erasure.reed_solomon import ReedSolomon
from repro.layout.allocation import Allocator
from repro.layout.bootregion import BootRegion
from repro.layout.frontier import FrontierManager
from repro.layout.pools import BufferPool
from repro.layout.segreader import SegmentReader
from repro.layout.segwriter import SegmentWriter
from repro.mediums.medium import MediumTable
from repro.obs.trace import Observability
from repro.sim.clock import SimClock
from repro.sim.rand import RandomStream
from repro.ssd.shelf import Shelf
from repro.units import MILLISECOND

#: Section 4.4: concurrent segment-shard programs per write group.
MAX_CONCURRENT_WRITES = 2
#: Recycled segio payload buffers kept by the flush-path pool.
SEGIO_BUFFER_POOL = 4
#: Predicted direct-read wait beyond which a hedged read fires. Sits
#: above the natural program-interference stall (2.5 ms) so fault-free
#: runs never hedge, and well below an injected stall storm (10 ms).
HEDGE_DEADLINE = 5 * MILLISECOND
#: Rebuild governor token rates, in segment evacuations per sim second.
REBUILD_RATE_FULL = 64.0
REBUILD_RATE_THROTTLED = 4.0
#: Foreground read latencies kept in the governor's sliding SLO window.
SLO_WINDOW_READS = 128


class PurityArray:
    """A single-controller Purity array over simulated hardware."""

    def __init__(self, config=None, clock=None, shelf=None, boot_region=None,
                 obs=None):
        self.config = config or ArrayConfig()
        self.clock = clock or SimClock()
        #: Unified observability (trace + metrics). Passing an existing
        #: instance (controller failover) keeps one trace across crashes.
        self.obs = obs if obs is not None else Observability(self.clock)
        self.stream = RandomStream(self.config.seed)
        if shelf is None:
            shelf = Shelf(
                "shelf0",
                self.clock,
                self.stream.fork("shelf0"),
                num_drives=self.config.num_drives,
                geometry=self.config.ssd_geometry,
                rated_pe_cycles=self.config.rated_pe_cycles,
                nvram_capacity=self.config.nvram_capacity,
            )
        self.shelf = shelf
        self.boot_region = boot_region or BootRegion(self.clock)
        geometry = self.config.segment_geometry
        self.codec = ReedSolomon(geometry.data_shards, geometry.parity_shards)
        self.drives = {drive.name: drive for drive in shelf.drives}
        self.allocator = Allocator(list(self.drives), self.config.aus_per_drive)
        self.frontier = FrontierManager(
            self.allocator, batch_per_drive=self.config.frontier_batch_per_drive
        )
        self.segwriter = SegmentWriter(
            geometry,
            self.codec,
            self.drives,
            self.frontier,
            self.clock,
            on_segment_opened=self._on_segment_opened,
            max_concurrent_writes=MAX_CONCURRENT_WRITES,
        )
        self.health = DriveHealthMonitor(
            self.clock, on_auto_fail=self._auto_fail_drive
        )
        self.segreader = SegmentReader(
            geometry,
            self.codec,
            self.drives,
            avoid_policy=self._avoid_policy,
            health=self.health,
        )
        self.tables = TableSet()
        self.pipeline = CommitPipeline(
            self.tables,
            shelf.nvram,
            self.segwriter,
            self.frontier,
            self.allocator,
            self.boot_region,
            self.config,
        )
        self.segwriter.checkpointer = self.pipeline.checkpoint
        self.segwriter.on_segio_flushed = self.pipeline.segio_flushed
        self.medium_table = MediumTable(
            self.tables.mediums,
            inserter=lambda key, value: self.pipeline.insert_meta(
                T.MEDIUMS, key, value
            )[0],
            on_allocate=lambda medium_id: self.pipeline.set_medium_id_hint(
                medium_id + 1
            ),
            elider=lambda prefix: self.pipeline.elide_prefix(T.MEDIUMS, prefix),
        )
        self.datapath = DataPath(
            self.pipeline,
            self.medium_table,
            self.segwriter,
            self.segreader,
            self.config,
        )
        self.volumes = VolumeManager(self.pipeline, self.medium_table, self.datapath)
        self.gc = GarbageCollector(self)
        self.scrubber = Scrubber(self)
        # Thread the observability handle through every layer that
        # opens spans or bumps registry metrics (a plain slot that
        # starts as NULL_OBS).
        self.datapath.obs = self.obs
        self.segwriter.obs = self.obs
        self.segreader.obs = self.obs
        #: Recycled segio buffers for the flush path: a plain slot,
        #: None-safe at its call site. Reads use no pool; this empty
        #: ``pool.read`` stays only because ``benchmarks/perf`` reads it.
        self.segwriter.buffer_pool = BufferPool(
            SEGIO_BUFFER_POOL, metrics=self.obs.metrics,
            name="pool.segio",
        )
        self.datapath.read_pool = BufferPool(0, metrics=self.obs.metrics,
                                             name="pool.read")
        self._write_latency = self.obs.metrics.histogram("io.write.latency")
        self._read_latency = self.obs.metrics.histogram("io.read.latency")
        # Degraded-mode policy layer (see :mod:`repro.degrade`): the
        # degradation ladder, the hedged-read policy, and the rebuild
        # governor. The hedge policy is wired unconditionally so the
        # reconstruction candidate ordering is identical with hedging
        # on or off; ``enabled`` only controls whether hedges fire.
        self.degrade = DegradeEngine(self.clock, obs=self.obs)
        self.datapath.degrade = self.degrade
        self.segwriter.degrade = self.degrade
        self.segreader.hedge = HedgePolicy(
            self.clock,
            HEDGE_DEADLINE,
            health=self.health,
            obs=self.obs,
            enabled=self.config.hedge_reads,
        )
        self.rebuild_governor = RebuildGovernor(
            self.clock,
            slo_p99=self.config.rebuild_slo_p99,
            full_rate=REBUILD_RATE_FULL,
            throttled_rate=REBUILD_RATE_THROTTLED,
            burst=self.config.rebuild_burst,
            window=SLO_WINDOW_READS,
            obs=self.obs,
        )
        # A controller booting onto substrate evidence of damage starts
        # on the matching rung (recovery adds the replay-debt numbers).
        if shelf.nvram.degraded:
            self.degrade.note_nvram_tear()
        self._note_drive_failures()
        self.crashed = False
        self._rebuild_pending = False

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def create(cls, config=None, clock=None):
        """Build and initialize a brand-new array (first checkpoint)."""
        array = cls(config=config, clock=clock)
        array.pipeline.checkpoint()
        return array

    def _on_segment_opened(self, descriptor):
        # Committed to NVRAM: no raw record regenerates the row, and a
        # checkpoint before the next drain would not point at it.
        placements = tuple(tuple(pair) for pair in descriptor.placements)
        self.pipeline.insert_meta_unchecked(
            T.SEGMENTS, [((descriptor.segment_id,), (placements,))]
        )

    def _avoid_policy(self, drive):
        if not self.config.read_around_writes:
            return False
        return drive.busy_writing(self.clock.now)

    # ------------------------------------------------------------------
    # Client API

    def _check_alive(self):
        if self.crashed:
            raise RuntimeError("this controller has crashed; recover first")

    def create_volume(self, name, size):
        """Provision a virtual block device."""
        self._check_alive()
        return self.volumes.create_volume(name, size)

    def write(self, volume, offset, data, advance_clock=True):
        """Write to a volume; returns the acknowledged commit latency."""
        self._check_alive()
        with self.obs.span("io.write", volume=volume, offset=offset,
                           nbytes=len(data)) as span:
            latency = self.volumes.write(volume, offset, data)
            span.set(lat=latency)
        self._write_latency.record(latency)
        if advance_clock:
            self.clock.advance(latency)
        return latency

    def read(self, volume, offset, length, advance_clock=True):
        """Read from a volume; returns (bytes, latency)."""
        self._check_alive()
        with self.obs.span("io.read", volume=volume, offset=offset,
                           nbytes=length) as span:
            data, latency = self.volumes.read(volume, offset, length)
            span.set(lat=latency)
        self._read_latency.record(latency)
        self.rebuild_governor.observe_read_latency(latency)
        if advance_clock:
            self.clock.advance(latency)
        return data, latency

    def unmap(self, volume, offset, length):
        """Punch a zero hole in a volume."""
        self._check_alive()
        self.volumes.unmap(volume, offset, length)

    def snapshot(self, volume, snapshot_name):
        """Instant point-in-time image of a volume."""
        self._check_alive()
        return self.volumes.snapshot(volume, snapshot_name)

    def clone(self, volume, snapshot_name, new_volume):
        """Writable volume backed by an existing snapshot."""
        self._check_alive()
        return self.volumes.clone_from_snapshot(volume, snapshot_name, new_volume)

    def clone_volume(self, volume, new_volume):
        """Writable copy of a live volume (internally snapshots it)."""
        self._check_alive()
        return self.volumes.clone_volume(volume, new_volume)

    def destroy_volume(self, volume):
        self._check_alive()
        self.volumes.destroy_volume(volume)

    def destroy_snapshot(self, volume, snapshot_name):
        self._check_alive()
        self.volumes.destroy_snapshot(volume, snapshot_name)

    # ------------------------------------------------------------------
    # Maintenance

    def drain(self):
        """Seal and persist in-memory index state; trims NVRAM."""
        self._check_alive()
        return self.pipeline.drain()

    def checkpoint(self):
        """Write a boot-region checkpoint (also refills the frontier).

        A checkpoint persists everything a torn NVRAM mirror put at
        risk, so it also completes the ``nvram-degraded`` repair: the
        ladder descends and write-through mode ends.
        """
        self._check_alive()
        self.pipeline.drain()
        result = self.pipeline.checkpoint()
        if self.degrade.write_through:
            self.degrade.note_nvram_repaired()
            self.shelf.nvram.mark_repaired()
        return result

    def run_gc(self, max_segments=4):
        """One background garbage-collection pass."""
        self._check_alive()
        return self.gc.run(max_segments=max_segments)

    def scrub(self, max_segments=None):
        """One background scrub pass (Section 5.1)."""
        self._check_alive()
        return self.scrubber.run(max_segments=max_segments)

    def fail_drive(self, drive_name):
        """Fail one SSD (the pulled-drive demo from Section 1).

        Service continues degraded; :meth:`rebuild` re-protects the
        affected segments onto the surviving drives.
        """
        drive = self.drives[drive_name]
        drive.fail()
        self.allocator.drop_drive(drive_name)
        self.frontier.drop_drive(drive_name)
        self.health.note_failed(drive_name)
        self._note_drive_failures()

    def _auto_fail_drive(self, drive_name):
        """Health-monitor callback: a chronically suspect drive is
        proactively failed; the next :meth:`service_health` rebuilds."""
        drive = self.drives.get(drive_name)
        if drive is None or drive.failed:
            return
        self._rebuild_pending = True
        self.fail_drive(drive_name)

    def _note_drive_failures(self):
        """Feed current drive-failure evidence to the degrade engine.

        More failures than parity shards is *detected* unsurvivable
        damage: the ladder pins the array read-only (reads keep being
        served and report loss honestly; writes are refused).
        """
        failed = sorted(
            name for name, drive in self.drives.items() if drive.failed
        )
        for name in failed:
            self.degrade.note_drive_failed(name)
        parity = self.config.segment_geometry.parity_shards
        if len(failed) > parity:
            self.degrade.note_unsurvivable(
                "%d concurrent drive failures exceed the parity budget (%d)"
                % (len(failed), parity)
            )

    def service_health(self):
        """Run the rebuild owed to auto-failed drives; returns segments
        re-protected (0 when no drive was auto-failed since last call).

        Deferred from the auto-fail itself because rebuild reads through
        the same segment reader that reported the bad drive — running it
        inline would recurse into the read path that triggered it.
        """
        if not self._rebuild_pending:
            return 0
        self._rebuild_pending = False
        return self.rebuild()

    def replace_drive(self, drive_name):
        """Install a fresh drive in a failed slot (service call)."""
        index = [d.name for d in self.shelf.drives].index(drive_name)
        replacement = self.shelf.replace_drive(
            index, self.stream.fork("replacement-%s" % drive_name)
        )
        del self.drives[drive_name]
        self.drives[replacement.name] = replacement
        self.allocator.add_drive(replacement.name)
        self.health.reset(drive_name)
        self.obs.event("drive.replace", drive=drive_name)
        return replacement

    def rebuild(self):
        """Evacuate every segment that lost a shard to a failed drive.

        Each evacuation reads through Reed-Solomon reconstruction and
        rewrites onto healthy drives, restoring full 7+2 protection.
        Returns the number of segments re-protected.
        """
        self._check_alive()
        obs = self.obs
        governor = self.rebuild_governor
        rebuilt = 0
        deferred = 0
        with obs.span("rebuild") as span:
            for fact in list(self.tables.segments.scan()):
                segment_id = fact.key[0]
                placements = fact.value[0]
                degraded = any(
                    drive_name not in self.drives
                    or self.drives[drive_name].failed
                    for drive_name, _au in placements
                )
                if not degraded:
                    continue
                self.degrade.note_degraded_stripe(segment_id)
                if not governor.grant():
                    deferred += 1
                    continue
                if self.gc.collect_segment(segment_id):
                    rebuilt += 1
                    self.degrade.note_segment_reprotected(segment_id)
                elif self.tables.segments.get((segment_id,)) is None:
                    # The segment vanished under us (already collected);
                    # nothing is left to repair.
                    self.degrade.note_segment_reprotected(segment_id)
            span.set(segments=rebuilt, deferred=deferred)
        if rebuilt:
            obs.metrics.counter("rebuild.segments").inc(rebuilt)
        if deferred:
            obs.metrics.counter("rebuild.deferred_segments").inc(deferred)
        elif not any(drive.failed for drive in self.drives.values()):
            if not self.degrade.degraded_segments:
                # A full pass saw nothing degraded and nothing was
                # deferred: parity protection is fully restored.
                self.degrade.note_parity_restored()
        return rebuilt

    def crash(self):
        """Abandon all controller state; the substrate survives.

        Returns (shelf, boot_region, clock) to hand to a recovering
        controller (``PurityArray.recover``).
        """
        self.crashed = True
        return self.shelf, self.boot_region, self.clock

    @classmethod
    def recover(cls, config, shelf, boot_region, clock, obs=None):
        """Bring up a controller over an existing substrate.

        Pass the crashed controller's ``obs`` to keep one trace and one
        metrics registry across the failover.
        """
        from repro.core.recovery import recover_array

        return recover_array(cls, config, shelf, boot_region, clock, obs=obs)

    # ------------------------------------------------------------------
    # Telemetry

    def reduction_report(self):
        """Data-reduction accounting (the paper's 5.4x metric)."""
        logical_live = 0
        unique = {}  # (segment, payload offset, stored length) -> logical
        for fact in self.datapath.visible_extents():
            value = fact.value
            if T.is_hole(value):
                continue
            logical_live += T.extent_length(value)
            unique[T.extent_location(value)] = T.extent_cblock_length(value)
        physical = sum(stored for _segment, _offset, stored in unique)
        unique_logical = sum(unique.values())
        geometry = self.config.segment_geometry
        parity_factor = geometry.total_shards / geometry.data_shards
        return ReductionReport(
            logical_live_bytes=logical_live,
            unique_logical_bytes=unique_logical,
            physical_stored_bytes=physical,
            physical_with_parity_bytes=int(physical * parity_factor),
            provisioned_bytes=self.volumes.provisioned_bytes(),
        )

    def observe_sample(self):
        """Record one point of every periodic gauge series.

        Harnesses and benchmarks call this every few operations; the
        report renders the resulting ``device.queue_depth`` /
        ``cache.cblock_hit_rate`` / ``dedup.ratio`` series over sim time.
        """
        registry = self.obs.metrics
        now = self.clock.now
        depth = sum(
            drive.queue_depth(now)
            for drive in self.drives.values()
            if not drive.failed
        )
        registry.series("device.queue_depth").sample(now, depth)
        cache = self.datapath._cblock_cache
        looked = cache.hits + cache.misses
        if looked:
            registry.series("cache.cblock_hit_rate").sample(
                now, cache.hits / looked
            )
        written = self.datapath.logical_bytes_written
        if written:
            registry.series("dedup.savings_fraction").sample(
                now, self.datapath.dedup_bytes_saved / written
            )
        registry.gauge("drives.alive").set(
            sum(1 for drive in self.drives.values() if not drive.failed)
        )
