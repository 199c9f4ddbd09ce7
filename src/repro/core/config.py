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
from repro.units import GIB, KIB, MIB


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
    #: Frontier batch: AUs reserved per drive per checkpoint.
    frontier_batch_per_drive: int = 8
    #: Dedup index bounds and sampling (Section 4.7).
    dedup_recent_capacity: int = 65536
    dedup_frequent_capacity: int = 65536
    dedup_sample_every: int = 8
    #: Inline dedup on/off (ablation hook).
    inline_dedup: bool = True
    #: Inline compression on/off (ablation hook).
    inline_compression: bool = True
    #: Read scheduler: reconstruct around busy-writing drives.
    read_around_writes: bool = True
    #: LSM fanout before background compaction merges patches.
    pyramid_fanout: int = 8
    #: Controller DRAM cache: decompressed cblocks kept hot.
    cblock_cache_entries: int = 256
    #: Host worker processes. The worker pool was removed (only zlib
    #: shares a large I/O with one helper thread, which nothing
    #: configures), so 0 is the only legal value; the field stays so
    #: that callers that pin it keep constructing.
    workers: int = 0
    #: Race parity reconstruction against slow/suspect direct reads.
    hedge_reads: bool = True
    #: Foreground read p99 SLO for rebuild backpressure. ``None``
    #: disables the governor (rebuild runs at full rate, untouched).
    rebuild_slo_p99: float | None = None
    #: Token-bucket burst: evacuations a single pass may front-load.
    rebuild_burst: int = 8
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
        if self.workers != 0:
            raise ValueError(
                "workers must be 0: the worker pool was removed (got %r)"
                % (self.workers,)
            )
        if self.rebuild_slo_p99 is not None and self.rebuild_slo_p99 <= 0:
            raise ValueError("rebuild_slo_p99 must be > 0 (or None)")
        if self.rebuild_burst < 1:
            raise ValueError("rebuild_burst must be >= 1")

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
