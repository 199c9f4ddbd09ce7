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

from dataclasses import dataclass, field, replace

from repro.core import tables as T
from repro.dedup.hashing import sector_hashes
from repro.errors import AllocationError
from repro.mediums.medium import MEDIUM_NONE
from repro.units import MAX_CBLOCK, SECTOR


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
        report = GCReport()
        with obs.span("gc.run", max_segments=max_segments) as span:
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
            span.set(collected=report.segments_collected,
                     rewritten=report.bytes_rewritten)
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
        with array.obs.span("gc.collect", segment=segment_id) as span:
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
                    span.set(skipped="pinned")
                    return False
            referencing = [
                fact for fact in datapath.visible_extents()
                if not T.is_hole(fact.value)
                and T.extent_location(fact.value)[0] == segment_id
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
            span.set(rewritten=report.cblocks_rewritten,
                     released=report.aus_released)
            return True

    def _rewrite_live_cblocks(self, descriptor, referencing, report):
        """Copy live cblocks to the open segio; returns the relocation map.

        Multi-reference (deduplicated) cblocks are rewritten first so
        they cluster together — they are the blocks least likely to die
        from future overwrites.
        """
        reference_counts = {}
        for fact in referencing:
            key = T.extent_location(fact.value)[1:]
            reference_counts[key] = reference_counts.get(key, 0) + 1
        blobs = self._read_live_blobs(descriptor, reference_counts)
        ordered = sorted(
            reference_counts, key=lambda key: -reference_counts[key]
        )
        relocations = {}
        for payload_offset, stored_length in ordered:
            blob = blobs.pop((payload_offset, stored_length))
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

    def _read_live_blobs(self, descriptor, live):
        """Read the ``live`` (payload_offset, stored_length) cblocks.

        One ``read_payload`` per segio covers its live span, first live
        byte to last, and each blob is sliced out as its own ``bytes``
        before the span is dropped: the result holds the live bytes and
        nothing else, and at most one span is held at a time.
        """
        per_segio = self.array.config.segment_geometry.payload_per_segio
        by_segio = {}
        for offset, length in live:
            segio = offset // per_segio
            if (offset + length - 1) // per_segio != segio:
                # The writer opens a fresh segio rather than straddle one.
                raise AssertionError(
                    "cblock at %d (+%d) straddles segio %d" % (offset, length, segio)
                )
            by_segio.setdefault(segio, []).append((offset, length))
        blobs = {}
        for segio in sorted(by_segio):
            cblocks = by_segio[segio]
            start = min(offset for offset, _length in cblocks)
            end = max(offset + length for offset, length in cblocks)
            span, _latency = self.array.segreader.read_payload(
                descriptor, start, end - start
            )
            for offset, length in cblocks:
                blobs[(offset, length)] = bytes(
                    span[offset - start : offset - start + length]
                )
            del span
        return blobs

    def _repoint_extents(self, referencing, relocations):
        """Repoint moved cblocks' extents; the rank moves with them."""
        entries = []
        for fact in referencing:
            target = relocations.get(T.extent_location(fact.value)[1:])
            if target is not None:
                entries.append((fact.key, T.relocated(fact.value, *target)))
        if entries:
            self.array.pipeline.insert_meta_batch(T.ADDRESS_MAP, entries)

    @staticmethod
    def _relocate_location(location, relocations):
        target = relocations.get((location.payload_offset, location.stored_length))
        if target is None:
            return None
        new_segment, new_offset = target
        # The blob is copied verbatim, so the cblock's hashes still hold.
        return replace(location, segment_id=new_segment,
                       payload_offset=new_offset)

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
        it re-hashes live data exhaustively and remaps direct extents
        whose bytes already exist elsewhere, each at its own rank.
        Byte-equality is verified before any remap (hashes select
        candidates, never decide).

        Returns (extents remapped, logical bytes deduplicated).
        """
        datapath = self.array.datapath
        min_run = (min_run_sectors if min_run_sectors is not None
                   else datapath.deduper.min_run_sectors)
        # Canonical map: sector hash -> (direct extent value, sector index).
        canonical_sectors = {}
        remapped = 0
        bytes_saved = 0
        entries = []
        for fact in sorted(datapath.visible_extents()):
            value = fact.value
            if not T.is_direct(value):
                continue
            try:
                data, _latency = datapath._read_cblock(*T.extent_location(value))
            except Exception:
                continue
            hashes = sector_hashes(data)
            target = self._whole_extent_match(data, hashes, canonical_sectors,
                                              value, min_run, datapath)
            if target is not None:
                canonical, sector = target
                logical = T.extent_length(value)
                entries.append((fact.key, T.extent_ref(
                    *T.extent_location(canonical),
                    T.extent_cblock_length(canonical), sector, logical,
                    T.extent_rank(value))))
                remapped += 1
                bytes_saved += logical
                continue
            # This cblock becomes canonical for its sectors.
            for sector, value_hash in enumerate(hashes):
                canonical_sectors.setdefault(value_hash, (value, sector))
        if entries:
            self.array.pipeline.insert_meta_batch(T.ADDRESS_MAP, entries)
        return remapped, bytes_saved

    def _whole_extent_match(self, data, hashes, canonical_sectors, own,
                            min_run, datapath):
        """Find a canonical run holding this extent's exact bytes.

        Returns (canonical direct extent's value, start sector) or None.
        Only whole-extent matches are remapped: partial overlap would
        fragment extents for marginal savings.
        """
        if len(hashes) < min_run:
            return None
        first = canonical_sectors.get(hashes[0])
        if first is None:
            return None
        canonical, start_sector = first
        location = T.extent_location(canonical)
        if location == T.extent_location(own):
            return None
        try:
            target_data, _latency = datapath._read_cblock(*location)
        except Exception:
            return None
        start = start_sector * SECTOR
        if target_data[start : start + len(data)] != data:
            return None  # hash collision: the byte compare is the law
        return first

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
          resolved content is copied into the top medium as references
          to the cblocks it already lives in (no data moves) and the
          range is retargeted to "own data".
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
        """Copy-up: make a medium's resolved content its own.

        Every extent piece a read of a delegating range reaches below
        the medium, holes included, is inserted into it as a reference
        to the same cblock bytes (or the same hole) at the same rank: no
        byte is read, stored or re-ranked, so
        covering what lies below changes nothing a read or a replication
        cycle sees. The references are drained durable, and only then
        are the delegating ranges retargeted to "own data" — a crash in
        between leaves the old chain intact plus harmless duplicate
        facts.
        """
        report = report if report is not None else GCReport()
        array = self.array
        table = array.medium_table
        rows = [
            row for row in table.ranges_of(medium_id)
            if row.target != MEDIUM_NONE
            and row.start % SECTOR == 0
            and row.end % SECTOR == 0
        ]
        batches = []
        for row in rows:
            pieces = []
            array.datapath._plan(medium_id, [(row.start, row.end)], 0, 0,
                                 pieces, holes=True)
            batches.append([
                ((medium_id, at), T.trimmed(fact.value, inner, nbytes))
                for at, fact, inner, nbytes in pieces
                if fact.key[0] != medium_id
            ])
        array.datapath.flush_referenced(
            [entry for batch in batches for entry in batch])
        for batch in batches:
            if batch:
                array.pipeline.insert_meta_batch(T.ADDRESS_MAP, batch)
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
        return any(fact.key[1] + T.extent_length(fact.value) > offset
                   for fact in self.array.datapath._extents_between(
                       medium_id, max(0, offset - MAX_CBLOCK + SECTOR),
                       offset + length - 1))
