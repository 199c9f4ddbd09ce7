"""Array configuration.

Two stock scales are provided: :meth:`ArrayConfig.paper_scale` mirrors
the published geometry (8 MiB AUs, 1 MiB write units, 7+2 coding,
11-drive shelves), and :meth:`ArrayConfig.small` shrinks every size so
whole-array tests and benchmarks run in seconds while exercising the
identical code paths.
"""

from dataclasses import dataclass, field

from repro.layout.segment import SegmentGeometry
from repro.ssd.geometry import SSDGeometry
from repro.units import GIB, KIB, MIB, MILLISECOND

#: Predicted direct-read wait beyond which a hedged read fires. Sits
#: above the natural program-interference stall (2.5 ms) so fault-free
#: runs never hedge, and well below an injected stall storm (10 ms).
HEDGE_DEADLINE = 5 * MILLISECOND
#: Rebuild governor token rates, in segment evacuations per sim second.
REBUILD_RATE_FULL = 64.0
REBUILD_RATE_THROTTLED = 4.0
#: Token-bucket burst: evacuations a single pass may front-load.
REBUILD_BURST = 8
#: Foreground read latencies kept in the governor's sliding SLO window.
SLO_WINDOW_READS = 128


@dataclass(frozen=True)
class ArrayConfig:
    """Every tunable of a simulated Purity array.

    The paper's point is that none of these are exposed to customers;
    they are construction-time parameters of the appliance.
    """

    num_drives: int = 11
    ssd_geometry: SSDGeometry = field(
        default_factory=lambda: SSDGeometry(capacity_bytes=1 * GIB)
    )
    segment_geometry: SegmentGeometry = field(default_factory=SegmentGeometry)
    nvram_capacity: int = 64 * MIB
    rated_pe_cycles: int = 3000
    #: Seal memtables and flush once NVRAM passes this fill fraction.
    nvram_high_watermark: float = 0.5
    #: Frontier batch: AUs reserved per drive per checkpoint.
    frontier_batch_per_drive: int = 8
    #: zlib effort for inline compression.
    compression_level: int = 1
    #: Dedup index bounds and sampling (Section 4.7).
    dedup_recent_capacity: int = 65536
    dedup_frequent_capacity: int = 65536
    dedup_sample_every: int = 8
    dedup_min_run_sectors: int = 8
    #: Inline dedup on/off (ablation hook).
    inline_dedup: bool = True
    #: Inline compression on/off (ablation hook).
    inline_compression: bool = True
    #: Read scheduler: reconstruct around busy-writing drives.
    read_around_writes: bool = True
    #: Section 4.4: concurrent segment-shard programs per write group.
    max_concurrent_writes: int = 2
    #: LSM fanout before background compaction merges patches.
    pyramid_fanout: int = 8
    #: Controller DRAM cache: decompressed cblocks kept hot.
    cblock_cache_entries: int = 256
    #: Host worker processes. The array's CPU stages are serial calls,
    #: so 0 is the only legal value; the field stays so that callers
    #: that pin it keep constructing.
    workers: int = 0
    #: Recycled segio payload buffers kept by the flush-path pool.
    segio_buffer_pool: int = 4
    #: Recycled read paint buffers kept by the read-path pool.
    read_buffer_pool: int = 8
    #: Race parity reconstruction against slow/suspect direct reads.
    hedge_reads: bool = True
    #: Predicted direct-read wait that triggers a hedged read.
    hedge_deadline: float = HEDGE_DEADLINE
    #: Foreground read p99 SLO for rebuild backpressure. ``None``
    #: disables the governor (rebuild runs at full rate, untouched).
    rebuild_slo_p99: float | None = None
    #: Governor token rates (segment evacuations per sim second).
    rebuild_rate_full: float = REBUILD_RATE_FULL
    rebuild_rate_throttled: float = REBUILD_RATE_THROTTLED
    #: Token-bucket burst allowance.
    rebuild_burst: int = REBUILD_BURST
    #: Sliding window of foreground read latencies for the SLO check.
    slo_window_reads: int = SLO_WINDOW_READS
    #: Random seed namespace for the array's stochastic models.
    seed: int = 0

    def __post_init__(self):
        if self.num_drives < self.segment_geometry.total_shards:
            raise ValueError(
                "%d drives cannot host %d-shard segments"
                % (self.num_drives, self.segment_geometry.total_shards)
            )
        if self.ssd_geometry.capacity_bytes % self.segment_geometry.au_size:
            raise ValueError("drive capacity must be a whole number of AUs")
        if not 0.0 < self.nvram_high_watermark <= 1.0:
            raise ValueError("nvram_high_watermark must be in (0, 1]")
        if self.workers != 0:
            raise ValueError(
                "workers must be 0: the worker pool was removed and every "
                "stage runs serially (got %r)" % (self.workers,)
            )
        if min(self.segio_buffer_pool, self.read_buffer_pool) < 0:
            raise ValueError("buffer pool sizes must be >= 0")
        if self.hedge_deadline <= 0:
            raise ValueError("hedge_deadline must be > 0")
        if self.rebuild_slo_p99 is not None and self.rebuild_slo_p99 <= 0:
            raise ValueError("rebuild_slo_p99 must be > 0 (or None)")
        if min(self.rebuild_rate_full, self.rebuild_rate_throttled) <= 0:
            raise ValueError("rebuild rates must be > 0")
        if self.rebuild_burst < 1 or self.slo_window_reads < 1:
            raise ValueError("rebuild_burst and slo_window_reads must be >= 1")

    @property
    def aus_per_drive(self):
        return self.ssd_geometry.capacity_bytes // self.segment_geometry.au_size

    @property
    def raw_capacity_bytes(self):
        """Raw flash across all drives."""
        return self.num_drives * self.ssd_geometry.capacity_bytes

    @property
    def usable_fraction(self):
        """Fraction of raw capacity left after parity overhead."""
        geometry = self.segment_geometry
        return geometry.data_shards / geometry.total_shards

    @classmethod
    def small(cls, num_drives=11, drive_capacity=8 * MIB, seed=0, **overrides):
        """A miniature array for tests: 64 KiB AUs, 16 KiB write units."""
        defaults = dict(
            num_drives=num_drives,
            ssd_geometry=SSDGeometry(
                capacity_bytes=drive_capacity,
                page_size=1 * KIB,
                erase_block_size=64 * KIB,
                num_dies=8,
            ),
            segment_geometry=SegmentGeometry(
                au_size=64 * KIB, write_unit=16 * KIB, wu_header_size=1 * KIB
            ),
            nvram_capacity=1 * MIB,
            frontier_batch_per_drive=4,
            dedup_recent_capacity=8192,
            dedup_frequent_capacity=8192,
            seed=seed,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def paper_scale(cls, num_drives=11, drive_capacity=1 * GIB, seed=0, **overrides):
        """The published geometry (scaled-down drive capacity by default)."""
        defaults = dict(
            num_drives=num_drives,
            ssd_geometry=SSDGeometry(capacity_bytes=drive_capacity),
            segment_geometry=SegmentGeometry(),
            seed=seed,
        )
        defaults.update(overrides)
        return cls(**defaults)
