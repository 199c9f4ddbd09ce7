"""Telemetry: the counters and latency traces a Purity array phones home.

Section 5.1: arrays continuously report request rates, sizes, volume
sizes and deduplication ratios. Here the same numbers drive the
benchmarks — latency percentiles, data-reduction ratios, and
availability accounting.
"""

from dataclasses import dataclass

# The event-counter layer lives in :mod:`repro.perf` (below every
# subsystem, so dedup/layout/faults can feed it without import cycles);
# this is its public face alongside the rest of telemetry, as is the
# health monitor's SUSPECT grade.
from repro.core.health import SUSPECT  # noqa: F401  (re-exported)
from repro.perf import (  # noqa: F401  (re-exported)
    PerfCounters,
    format_perf_report,
    perf_report,
    reset_perf_counters,
)

__all__ = [
    # re-exports
    "PerfCounters",
    "SUSPECT",
    "format_perf_report",
    "perf_report",
    "reset_perf_counters",
    # this module's own public surface
    "degraded_mode_report",
    "ReductionReport",
]


def degraded_mode_report(array, service=None):
    """Fault/retry/health counters for one array, as plain dicts.

    Combines the segment reader's per-drive retry accounting, the
    health monitor's drive grades, and the device-level corruption and
    stall counters — the numbers a support engineer would pull first
    when a chaos run (or a real array) misbehaves.

    With ``service`` (a :class:`~repro.service.frontend.
    ServiceFrontend` riding on this array) the report grows a
    ``service`` section: admission verdict counts plus per-tenant
    queue depth and latency percentiles — the front-end face of the
    same degradation the ladder section describes. Field meanings are
    documented in docs/SERVICE_PLANE.md.
    """
    report = {
        "retries": array.segreader.retry_report(),
        "health": array.health.report(),
        "devices": {
            name: {
                "corrupted_reads": drive.counters.corrupted_reads,
                "stalled_reads": drive.counters.stalled_reads,
                "stall_pressure": array.health.stall_pressure(name),
                "failed": drive.failed,
            }
            for name, drive in sorted(array.drives.items())
        },
        "reconstructed_reads": array.segreader.reconstructed_reads,
        "direct_reads": array.segreader.direct_reads,
    }
    report["ladder"] = array.degrade.report()
    report["repair_debt"] = array.degrade.debt.snapshot()
    report["hedge"] = array.segreader.hedge.report()
    report["rebuild_governor"] = array.rebuild_governor.report()
    if service is not None:
        report["service"] = service.service_report()
    return report


@dataclass
class ReductionReport:
    """Data-reduction accounting, matching the paper's definitions.

    ``data_reduction`` excludes thin-provisioning gains (the paper's
    5.4x average is measured this way); ``thin_provisioning`` is
    reported separately (the paper's ~12x average).
    """

    #: Live bytes applications see (latest visible extents).
    logical_live_bytes: int
    #: Uncompressed bytes of the unique cblocks actually stored
    #: (= logical minus dedup savings).
    unique_logical_bytes: int
    #: Compressed bytes of those unique cblocks on flash.
    physical_stored_bytes: int
    #: Physical bytes including Reed-Solomon parity overhead.
    physical_with_parity_bytes: int
    #: Sum of volume sizes (virtual space handed to applications).
    provisioned_bytes: int

    @property
    def data_reduction(self):
        """Effective / physical capacity: dedup x compression."""
        if not self.physical_stored_bytes:
            return 1.0
        return self.logical_live_bytes / self.physical_stored_bytes

    @property
    def dedup_ratio(self):
        """Reduction attributable to deduplication alone."""
        if not self.unique_logical_bytes:
            return 1.0
        return self.logical_live_bytes / self.unique_logical_bytes

    @property
    def compression_ratio(self):
        """Reduction attributable to compression alone."""
        if not self.physical_stored_bytes:
            return 1.0
        return self.unique_logical_bytes / self.physical_stored_bytes

    @property
    def thin_provisioning(self):
        """Provisioned virtual space over logical data written."""
        if not self.logical_live_bytes:
            return float("inf") if self.provisioned_bytes else 1.0
        return self.provisioned_bytes / self.logical_live_bytes
