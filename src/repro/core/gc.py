"""Garbage collection (paper Sections 4.5, 4.7, 4.10).

Purity's user data is unordered, so GC is cheap segment evacuation:
pick the segments with the least live data, rewrite their live cblocks
into the open segio, repoint the address map, and free the allocation
units. Elide records are applied during pyramid merges (space for
deleted metadata), and deduplicated cblocks are rewritten first so they
cluster into their own segments (the paper's dedup segregation).

The collector also owns two medium-tree duties: sweeping unreferenced
mediums (snapshot/volume deletion only drops *references*) and keeping
delegation chains short enough that reads touch at most three levels.
"""

from dataclasses import dataclass, field

from repro.core import tables as T
from repro.errors import AllocationError
from repro.mediums.medium import MEDIUM_NONE


@dataclass
class GCReport:
    """What one GC pass did."""

    segments_examined: int = 0
    segments_collected: int = 0
    cblocks_rewritten: int = 0
    bytes_rewritten: int = 0
    aus_released: int = 0
    mediums_swept: int = 0
    chains_shortened: int = 0
    details: list = field(default_factory=list)


class GarbageCollector:
    """Background space reclamation for one array."""

    #: Collect segments whose live fraction is below this.
    LIVE_RATIO_THRESHOLD = 0.75

    def __init__(self, array):
        self.array = array
        #: Fault-injection crashpoint router (see :mod:`repro.faults`).
        self.crashpoints = None
        self.total_segments_collected = 0
        self.total_bytes_rewritten = 0

    # ------------------------------------------------------------------
    # Liveness

    def segment_liveness(self):
        """[(segment_id, live_bytes, capacity)] for every sealed segment."""
        datapath = self.array.datapath
        live_map = datapath.live_cblocks_by_segment()
        capacity = self.array.config.segment_geometry.payload_per_segment
        rows = []
        for fact in self.array.tables.segments.scan():
            segment_id = fact.key[0]
            live = sum(
                stored for _offset, stored in live_map.get(segment_id, ())
            )
            rows.append((segment_id, live, capacity))
        return rows

    def _open_segment_id(self):
        descriptor = self.array.segwriter.current_descriptor
        return descriptor.segment_id if descriptor is not None else None

    def _pinned_identities(self):
        """(drive, au) first-placement pairs of patch-pinned segments."""
        return self.array.pipeline.pinned_segment_ids()

    def _is_pinned(self, descriptor):
        first = descriptor.placements[0]
        return (first[0], first[1]) in self._pinned_identities()

    # ------------------------------------------------------------------
    # Segment collection

    def run(self, max_segments=4):
        """Collect up to ``max_segments`` of the emptiest segments."""
        obs = self.array.obs
        span = None
        if obs is not None and obs.tracing:
            span = obs.begin("gc.run", max_segments=max_segments)
        report = GCReport()
        try:
            liveness = self.segment_liveness()
            report.segments_examined = len(liveness)
            candidates = sorted(
                (row for row in liveness if row[1] / row[2] < self.LIVE_RATIO_THRESHOLD),
                key=lambda row: row[1] / row[2],
            )
            for segment_id, _live, _capacity in candidates[:max_segments]:
                if self.collect_segment(segment_id, report):
                    report.segments_collected += 1
            self.sweep_mediums(report)
            self.shorten_chains(report)
            self.array.pipeline.compact()
        except BaseException:
            if span is not None:
                obs.end(span, crashed=True)
            raise
        if span is not None:
            obs.end(
                span,
                collected=report.segments_collected,
                rewritten=report.bytes_rewritten,
            )
        if obs is not None:
            obs.metrics.counter("gc.segments_collected").inc(
                report.segments_collected
            )
            obs.metrics.counter("gc.bytes_rewritten").inc(report.bytes_rewritten)
        return report

    def collect_segment(self, segment_id, report=None):
        """Evacuate one segment; returns True if it was freed."""
        report = report if report is not None else GCReport()
        array = self.array
        datapath = array.datapath
        try:
            descriptor = datapath.descriptor_for(segment_id)
        except Exception:
            return False
        cp = self.crashpoints
        obs = array.obs
        span = None
        if obs is not None and obs.tracing:
            span = obs.begin("gc.collect", segment=segment_id)
        try:
            return self._collect_segment_traced(
                segment_id, descriptor, report, cp, obs, span
            )
        except BaseException:
            if span is not None:
                obs.end(span, crashed=True)
            raise

    def _collect_segment_traced(self, segment_id, descriptor, report, cp, obs,
                                span):
        array = self.array
        datapath = array.datapath
        if cp is not None:
            cp.hit("gc.pre-collect", segment_id=segment_id)
        if segment_id == self._open_segment_id():
            # Evacuating the open segment: retire it first so rewrites
            # (and re-homed patches) land in a fresh segment.
            array.segwriter.retire_current_segment()
        if self._is_pinned(descriptor):
            first = descriptor.placements[0]
            array.pipeline.unpin_segment((first[0], first[1]))
            if self._is_pinned(descriptor):
                if span is not None:
                    obs.end(span, skipped="pinned")
                return False
        referencing = [
            fact for fact in datapath.visible_extents()
            if fact.value[0] != T.EXTENT_HOLE and fact.value[1] == segment_id
        ]
        relocations = self._rewrite_live_cblocks(
            descriptor, referencing, report
        )
        # Durability barrier: the rewritten cblocks must be on media
        # *before* the repointed facts commit to the WAL. Repoint facts
        # survive a crash via NVRAM, so if they could reference data
        # still sitting in the open segio's RAM, recovery would rebuild
        # an address map pointing at never-flushed locations.
        if relocations:
            array.segwriter.flush()
        if cp is not None:
            cp.hit("gc.post-rewrite", segment_id=segment_id)
        self._repoint_extents(referencing, relocations)
        datapath.dedup_index.rewrite_segment(
            segment_id,
            lambda location: self._relocate_location(location, relocations),
        )
        # Durability barriers: the repointed facts must be persisted and
        # the segment row durably elided *before* the old bits are
        # destroyed — a crash in between must never resurrect the row
        # and double-free AUs another segment now owns.
        array.pipeline.drain()
        array.pipeline.elide_key_range(T.SEGMENTS, segment_id, segment_id)
        if cp is not None:
            # A crash here leaks the old AUs until the next full sweep
            # but must never lose data: the facts above are durable.
            cp.hit("gc.pre-release", segment_id=segment_id)
        self._release_segment(descriptor, report)
        datapath.invalidate_segment(segment_id)
        self.total_segments_collected += 1
        if span is not None:
            obs.end(
                span,
                rewritten=report.cblocks_rewritten,
                released=report.aus_released,
            )
        return True

    def _rewrite_live_cblocks(self, descriptor, referencing, report):
        """Copy live cblocks to the open segio; returns the relocation map.

        Multi-reference (deduplicated) cblocks are rewritten first so
        they cluster together — they are the blocks least likely to die
        from future overwrites.
        """
        reference_counts = {}
        for fact in referencing:
            key = (fact.value[2], fact.value[3])
            reference_counts[key] = reference_counts.get(key, 0) + 1
        ordered = sorted(
            reference_counts, key=lambda key: -reference_counts[key]
        )
        relocations = {}
        for payload_offset, stored_length in ordered:
            blob, _latency = self.array.segreader.read_payload(
                descriptor, payload_offset, stored_length
            )
            new_descriptor, new_offset, _lat = self.array.segwriter.append_data(
                blob
            )
            relocations[(payload_offset, stored_length)] = (
                new_descriptor.segment_id,
                new_offset,
            )
            report.cblocks_rewritten += 1
            report.bytes_rewritten += stored_length
            self.total_bytes_rewritten += stored_length
        return relocations

    def _repoint_extents(self, referencing, relocations):
        entries = []
        for fact in referencing:
            value = list(fact.value)
            target = relocations.get((value[2], value[3]))
            if target is None:
                continue
            value[1], value[2] = target
            entries.append((fact.key, tuple(value)))
        if entries:
            self.array.pipeline.insert_meta_batch(T.ADDRESS_MAP, entries)

    @staticmethod
    def _relocate_location(location, relocations):
        target = relocations.get((location.payload_offset, location.stored_length))
        if target is None:
            return None
        new_segment, new_offset = target
        from repro.dedup.index import DedupLocation

        return DedupLocation(
            new_segment, new_offset, location.stored_length, location.sector_index
        )

    def _release_segment(self, descriptor, report):
        geometry = self.array.config.segment_geometry
        for drive_name, au_index in descriptor.placements:
            drive = self.array.drives.get(drive_name)
            if drive is not None and not drive.failed:
                drive.discard(au_index * geometry.au_size, geometry.au_size)
            try:
                self.array.allocator.release([(drive_name, au_index)])
                report.aus_released += 1
            # lint: allow[no-bare-except] drive dropped from the allocator after failure; nothing to release
            except AllocationError:
                pass

    # ------------------------------------------------------------------
    # Background deduplication (Section 4.7)

    def background_dedup(self, min_run_sectors=None):
        """The deeper dedup pass inline processing did not have time for.

        Inline dedup only consults a bounded index of recent and
        frequent hashes; as garbage collection scans in the background
        it re-hashes live data exhaustively and remaps whole extents
        whose bytes already exist elsewhere. Byte-equality is verified
        before any remap (hashes select candidates, never decide).

        Returns (extents remapped, logical bytes deduplicated).
        """
        from repro.dedup.hashing import sector_hashes
        from repro.units import SECTOR

        datapath = self.array.datapath
        min_run = (
            min_run_sectors
            if min_run_sectors is not None
            else datapath.deduper.min_run_sectors
        )
        # Canonical map: sector hash -> (cblock key, sector index).
        canonical_sectors = {}
        canonical_keys = set()
        remapped = 0
        bytes_saved = 0
        entries = []
        for fact in sorted(datapath.visible_extents()):
            value = fact.value
            if value[0] != T.EXTENT_DIRECT:
                continue
            _tag, segment_id, payload_offset, stored_length, logical = value
            cblock_key = (segment_id, payload_offset)
            try:
                data, _latency = datapath._read_cblock(
                    segment_id, payload_offset, stored_length
                )
            except Exception:
                continue
            usable = (len(data) // SECTOR) * SECTOR
            hashes = sector_hashes(data[:usable])
            target = self._whole_extent_match(
                data, hashes, canonical_sectors, canonical_keys,
                cblock_key, min_run, datapath,
            )
            if target is not None:
                target_key, target_sector, target_stored = target
                entries.append(
                    (
                        fact.key,
                        (T.EXTENT_DEDUP, target_key[0], target_key[1],
                         target_stored, logical, target_sector),
                    )
                )
                remapped += 1
                bytes_saved += logical
                continue
            # This cblock becomes canonical for its sectors.
            canonical_keys.add(cblock_key)
            for sector, value_hash in enumerate(hashes):
                canonical_sectors.setdefault(
                    value_hash, (cblock_key, sector, stored_length)
                )
        if entries:
            self.array.pipeline.insert_meta_batch(T.ADDRESS_MAP, entries)
        return remapped, bytes_saved

    def _whole_extent_match(self, data, hashes, canonical_sectors,
                            canonical_keys, own_key, min_run, datapath):
        """Find a canonical run holding this extent's exact bytes.

        Returns (canonical cblock key, start sector, stored_length) or
        None. Only whole-extent matches are remapped: partial overlap
        would fragment extents for marginal savings.
        """
        from repro.units import SECTOR

        if len(hashes) < min_run:
            return None
        first = canonical_sectors.get(hashes[0])
        if first is None:
            return None
        (target_key, start_sector, stored_length) = first
        if target_key == own_key or target_key not in canonical_keys:
            return None
        try:
            target_data, _latency = datapath._read_cblock(
                target_key[0], target_key[1], stored_length
            )
        except Exception:
            return None
        start = start_sector * SECTOR
        usable = (len(data) // SECTOR) * SECTOR
        if start + len(data) > len(target_data):
            return None
        if target_data[start : start + usable] != data[:usable]:
            return None  # hash collision: the byte compare is the law
        if data[usable:] and target_data[start + usable : start + len(data)] != data[usable:]:
            return None
        return (target_key, start_sector, stored_length)

    # ------------------------------------------------------------------
    # Medium-tree maintenance

    def live_medium_closure(self):
        """Roots (anchors + snapshots) plus every medium they delegate to."""
        table = self.array.medium_table
        live = set()
        frontier = list(self.array.volumes.referenced_mediums())
        while frontier:
            medium_id = frontier.pop()
            if medium_id in live or medium_id == MEDIUM_NONE:
                continue
            live.add(medium_id)
            for row in table.ranges_of(medium_id):
                if row.target != MEDIUM_NONE:
                    frontier.append(row.target)
        return live

    def sweep_mediums(self, report=None):
        """Drop mediums no volume, snapshot, or chain references."""
        report = report if report is not None else GCReport()
        table = self.array.medium_table
        live = self.live_medium_closure()
        for medium_id in table.all_medium_ids():
            if medium_id not in live:
                table.drop_medium(medium_id)
                self.array.pipeline.elide_prefix(T.ADDRESS_MAP, (medium_id,))
                report.mediums_swept += 1
        return report

    def shorten_chains(self, report=None, max_depth=3):
        """Keep every read path at ``max_depth`` hops or fewer.

        Two tools, cheapest first (Section 4.5: "the garbage collector
        rewrites trees of mediums in a flattened form so that
        application reads never have to access more than three
        cblocks"):

        * **shortcuts** — a delegating range skips intermediates that
          hold no extents for it (no data moves);
        * **copy-up flattening** — when a chain is still too deep
          because intermediates do hold data, the range's fully
          resolved content is written into the top medium (inline dedup
          usually turns the copy into references) and the range is
          retargeted to "own data".
        """
        report = report if report is not None else GCReport()
        table = self.array.medium_table
        for medium_id in table.all_medium_ids():
            for row in table.ranges_of(medium_id):
                if row.target == MEDIUM_NONE:
                    continue
                final_target, final_offset, hops = self._deepest_shortcut(row)
                if hops > 0:
                    table.retarget_range(row, final_target, final_offset)
                    row = table.range_covering(medium_id, row.start)
                    report.chains_shortened += 1
        # Second pass: anything still too deep gets materialized.
        for medium_id in self._anchors_only():
            if self._max_chain_depth(medium_id) > max_depth:
                self.flatten_medium(medium_id, report)
        return report

    def _anchors_only(self):
        """Writable roots (volume anchors): the mediums reads start from."""
        return sorted(self.array.volumes.referenced_mediums())

    def _max_chain_depth(self, medium_id):
        from repro.mediums.resolver import chain_depth

        table = self.array.medium_table
        deepest = 0
        for row in table.ranges_of(medium_id):
            for probe in (row.start, max(row.start, row.end - 1)):
                deepest = max(deepest, chain_depth(table, medium_id, probe))
        return deepest

    def flatten_medium(self, medium_id, report=None):
        """Copy-up: materialize a medium's resolved content as its own.

        The content is read through the chain and rewritten into the
        medium (deduplication collapses the copies back onto the
        existing cblocks), the derived facts are drained durable, and
        only then are the delegating ranges retargeted to "own data" —
        a crash in between leaves the old chain intact plus harmless
        duplicate facts.
        """
        from repro.units import MAX_CBLOCK

        from repro.units import SECTOR

        report = report if report is not None else GCReport()
        array = self.array
        table = array.medium_table
        rows = [
            row for row in table.ranges_of(medium_id)
            if row.target != MEDIUM_NONE
            and row.start % SECTOR == 0
            and row.end % SECTOR == 0
        ]
        for row in rows:
            cursor = row.start
            while cursor < row.end:
                length = min(MAX_CBLOCK, row.end - cursor)
                data, _latency = array.datapath.read(medium_id, cursor, length)
                array.datapath.process_write(medium_id, cursor, data)
                cursor += length
        array.pipeline.drain()
        for row in rows:
            table.retarget_range(
                table.range_covering(medium_id, row.start), MEDIUM_NONE, 0
            )
        report.chains_shortened += len(rows)
        return report

    def _deepest_shortcut(self, row):
        """Walk past extent-free intermediates; returns (target, offset, hops)."""
        table = self.array.medium_table
        target, offset = row.target, row.target_offset
        length = row.length
        hops = 0
        for _ in range(32):
            covering = table.range_covering(target, offset)
            if covering is None or covering.maps_directly():
                break
            if covering.end < offset + length:
                break  # the range splits across rows; stop conservatively
            if self._has_extents(target, offset, length):
                break
            target, offset = (
                covering.target,
                covering.target_offset + (offset - covering.start),
            )
            hops += 1
        return target, offset, hops

    def _has_extents(self, medium_id, offset, length):
        address_map = self.array.tables.address_map
        from repro.units import MAX_CBLOCK, SECTOR

        lo = (medium_id, max(0, offset - MAX_CBLOCK + SECTOR))
        hi = (medium_id, offset + length - 1)
        for fact in address_map.scan(lo, hi):
            logical = self.array.datapath._extent_logical_length(fact.value)
            if fact.key[1] + logical > offset:
                return True
        return False
