"""Background scrubbing (paper Section 5.1).

Worn flash leaks charge faster than new flash, and endurance ratings
assume a year of unpowered retention. Purity periodically scrubs and
rewrites stored data, so worn cells are refreshed far more often than
the rating assumed — which is how arrays run safely past rated wear.

The scrubber walks sealed segments, reads every shard, checks parity
consistency, and evacuates (rewrites) any segment showing corrupt pages
or sitting on heavily worn erase blocks. Evacuation reuses the garbage
collector, which re-reads through Reed-Solomon reconstruction, so a
scrub repairs as it refreshes.
"""

from dataclasses import dataclass, field

from repro.errors import VolumeError


@dataclass
class ScrubReport:
    """What one scrub pass found and fixed."""

    segments_scanned: int = 0
    #: Segments whose descriptor vanished between the table scan and the
    #: shard reads (GC freed them mid-pass) — skipped, not an error.
    segments_skipped: int = 0
    shards_read: int = 0
    corrupt_shards: int = 0
    parity_mismatches: int = 0
    segments_rewritten: int = 0
    #: Rewrites the rebuild governor deferred to protect foreground SLO.
    segments_deferred: int = 0
    details: list = field(default_factory=list)


class Scrubber:
    """Proactive data-integrity sweeps for one array."""

    #: Rewrite segments whose worst erase block exceeds this wear.
    WEAR_REFRESH_THRESHOLD = 0.9

    def __init__(self, array):
        self.array = array
        self.passes = 0

    def run(self, max_segments=None):
        """Scrub sealed segments; returns a :class:`ScrubReport`."""
        report = ScrubReport()
        array = self.array
        obs = array.obs
        span = None
        if obs is not None and obs.tracing:
            span = obs.begin("scrub.run")
        try:
            geometry = array.config.segment_geometry
            segment_ids = [fact.key[0] for fact in array.tables.segments.scan()]
            if max_segments is not None:
                segment_ids = segment_ids[:max_segments]
            governor = array.rebuild_governor
            for segment_id in segment_ids:
                needs_rewrite = self._scrub_segment(segment_id, geometry, report)
                if not needs_rewrite:
                    continue
                if not governor.grant():
                    # Foreground p99 is over the SLO: leave the rewrite
                    # for a later pass rather than piling on repair I/O.
                    report.segments_deferred += 1
                    continue
                if array.gc.collect_segment(segment_id):
                    report.segments_rewritten += 1
        except BaseException:
            if span is not None:
                obs.end(span, crashed=True)
            raise
        self.passes += 1
        if span is not None:
            obs.end(
                span,
                scanned=report.segments_scanned,
                corrupt_shards=report.corrupt_shards,
                rewritten=report.segments_rewritten,
            )
        if obs is not None:
            obs.metrics.counter("scrub.segments_scanned").inc(
                report.segments_scanned
            )
            obs.metrics.counter("scrub.corrupt_shards").inc(
                report.corrupt_shards
            )
            if report.segments_deferred:
                obs.metrics.counter("rebuild.deferred_segments").inc(
                    report.segments_deferred
                )
        return report

    def _scrub_segment(self, segment_id, geometry, report):
        array = self.array
        try:
            descriptor = array.datapath.descriptor_for(segment_id)
        except VolumeError:
            # Only the missing-descriptor race (GC freed the segment
            # after the table scan) is skippable; any other failure in
            # a scrub is a real bug and must propagate.
            report.segments_skipped += 1
            return False
        report.segments_scanned += 1
        corrupt = False
        worn = False
        for segio in range(geometry.segios_per_segment):
            written = self._segio_state(descriptor, geometry, segio)
            if written == "unwritten":
                continue  # never flushed (open or retired segment tail)
            if written == "corrupt":
                corrupt = True
            bodies = []
            for _shard, (drive_name, au_index) in enumerate(descriptor.placements):
                drive = array.drives.get(drive_name)
                if drive is None or drive.failed:
                    corrupt = True
                    bodies.append(None)
                    continue
                offset = geometry.device_offset(
                    au_index * geometry.au_size,
                    segio,
                    geometry.wu_header_size,
                )
                result = drive.read(offset, geometry.shard_body)
                report.shards_read += 1
                if result.corrupted:
                    report.corrupt_shards += 1
                    corrupt = True
                    bodies.append(None)
                    continue
                bodies.append(result.data)
                erase_block = drive.geometry.erase_block_of(offset)
                if drive.wear.wear_fraction(erase_block) > self.WEAR_REFRESH_THRESHOLD:
                    worn = True
            if (all(body is not None for body in bodies)
                    and not array.codec.verify(bodies)):
                report.parity_mismatches += 1
                corrupt = True
        return corrupt or worn

    def _segio_state(self, descriptor, geometry, segio):
        """Classify one segio: "written", "unwritten", or "corrupt".

        Headers are replicated on every shard: a valid header anywhere
        means written; a corrupted header read means the flash is
        rotting; all-zero header bytes on every alive shard means the
        stripe was never flushed.
        """
        from repro.layout.segment import SegioHeader

        saw_corruption = False
        for drive_name, au_index in descriptor.placements:
            drive = self.array.drives.get(drive_name)
            if drive is None or drive.failed:
                continue
            offset = geometry.device_offset(
                au_index * geometry.au_size, segio, 0
            )
            result = drive.read(offset, geometry.wu_header_size)
            if result.corrupted:
                saw_corruption = True
                continue
            if SegioHeader.decode(result.data) is not None:
                return "written"
            if any(result.data):
                saw_corruption = True  # non-zero garbage where a header was
        return "corrupt" if saw_corruption else "unwritten"
