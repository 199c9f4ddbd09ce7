"""The data path: application writes in, application reads out.

Write path (Sections 4.6–4.7): a write is committed to NVRAM (the
acknowledged latency), split into cblock-sized pieces matching the
write, deduplicated inline (lookup every sector hash, byte-verify,
anchor-extend), and the unique remainder is compressed into cblocks
appended to the open segio. Address-map facts record where everything
went; they are derived facts, replayable from the raw NVRAM record.

Read path (Sections 3.4, 4.5): resolve the medium chain, gather every
address-map extent overlapping the range at each level, and paint
newest-over-oldest — each medium's extents are a patch applied over its
underlying medium. Extra random reads (dedup references, chain hops)
are the price of the capacity savings, and flash makes them cheap.
"""

from collections import OrderedDict

from repro.compression.cblock import build_cblock, parse_cblock, split_write
from repro.compression.engine import CompressionStats, ZlibCompressor
from repro.core import tables as T
from repro.dedup.hashing import sampled_sector_hashes
from repro.dedup.index import DedupIndex, DedupLocation
from repro.dedup.inline import InlineDeduper
from repro.errors import SnapshotError, VolumeError
from repro.layout.segment import SegmentDescriptor
from repro.mediums.medium import MEDIUM_NONE
from repro.perf import PERF
from repro.units import MAX_CBLOCK, SECTOR

#: Depth guard for medium recursion (GC keeps real chains <= 3).
MAX_PAINT_DEPTH = 64


class CBlockCache:
    """LRU cache of decompressed cblocks, indexed by segment.

    Keys are (segment_id, payload_offset); values are immutable
    ``bytes`` the cache owns, never views of a caller's buffer, so
    readers slice them and dedup compares them (memcmp) without a
    defensive copy. A per-segment key index makes
    :meth:`invalidate_segment` proportional to the entries cached *for
    that segment* instead of a scan of the whole cache, and every
    lookup/eviction/invalidation feeds both local counters (unit
    tests) and the global perf counters (``perf_report()``).
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self._entries = OrderedDict()
        self._segment_keys = {}  # segment_id -> set of cached keys
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def get(self, key):
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            PERF.incr("cblock-cache-miss")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        PERF.incr("cblock-cache-hit")
        return value

    def _drop_key_index(self, key):
        keys = self._segment_keys.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._segment_keys[key[0]]

    def put(self, key, value):
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        else:
            self._segment_keys.setdefault(key[0], set()).add(key)
        # A view of a caller's write buffer is copied here (the caller
        # may reuse the buffer the moment write() returns); bytes pass
        # through as they are.
        entries[key] = bytes(value)
        while len(entries) > self.capacity:
            evicted_key, _value = entries.popitem(last=False)
            self._drop_key_index(evicted_key)
            self.evictions += 1
            PERF.incr("cblock-cache-eviction")

    def invalidate_segment(self, segment_id):
        """Drop every entry of one segment; returns how many went."""
        keys = self._segment_keys.pop(segment_id, None)
        if not keys:
            return 0
        for key in keys:
            del self._entries[key]
        self.invalidations += len(keys)
        PERF.incr("cblock-cache-invalidation", len(keys))
        return len(keys)

    def clear(self):
        self._entries.clear()
        self._segment_keys.clear()

    def counters(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries": len(self._entries),
        }


class DataPath:
    """Write and read pipelines over one array's substrate."""

    def __init__(self, pipeline, medium_table, segwriter, segreader, config):
        self.pipeline = pipeline
        self.tables = pipeline.tables
        self.medium_table = medium_table
        self.segwriter = segwriter
        self.segreader = segreader
        self.config = config
        self.compressor = ZlibCompressor()
        self.compression_stats = CompressionStats()
        self.dedup_index = DedupIndex(
            recent_capacity=config.dedup_recent_capacity,
            frequent_capacity=config.dedup_frequent_capacity,
        )
        self.deduper = InlineDeduper(self.dedup_index, self._fetch_cblock)
        self._cblock_cache = CBlockCache(config.cblock_cache_entries)
        self._descriptor_cache = {}
        #: Fault-injection crashpoint router (see :mod:`repro.faults`).
        self.crashpoints = None
        #: Observability handle (see :mod:`repro.obs`); the array wires
        #: its own in. None-safe: standalone datapaths trace nothing.
        self.obs = None
        #: Recycled read paint buffers; None-safe (fresh bytearrays).
        self.read_pool = None
        #: Optional :class:`repro.degrade.DegradeEngine`; wired by the
        #: array. Gates writes (read-only rung) and forces write-through
        #: flushing while the NVRAM mirror is torn.
        self.degrade = None
        self.logical_bytes_written = 0
        #: Bytes written as references instead of stored. A re-ingested
        #: tail may match the very cblock it was painted from, so on a
        #: partial-overwrite workload part of this is the tail finding
        #: its own source, not duplicate client data.
        self.dedup_bytes_saved = 0
        #: Partial overwrites that replaced a longer extent at its key
        #: and so had to write its tail back (see :meth:`_ingest`).
        self.tails_reingested = 0
        self.tail_bytes_reingested = 0

    # ------------------------------------------------------------------
    # Physical plumbing

    def descriptor_for(self, segment_id):
        """Resolve a segment id to its descriptor via the segment table."""
        cached = self._descriptor_cache.get(segment_id)
        if cached is not None:
            return cached
        fact = self.tables.segments.get((segment_id,))
        if fact is None:
            raise VolumeError("segment %d is unknown" % segment_id)
        placements = tuple(tuple(pair) for pair in fact.value[0])
        descriptor = SegmentDescriptor(segment_id=segment_id, placements=placements)
        self._descriptor_cache[segment_id] = descriptor
        return descriptor

    def drop_caches(self):
        """Empty the controller's read caches (tests and failover drills)."""
        self._cblock_cache.clear()
        self._descriptor_cache.clear()

    def invalidate_segment(self, segment_id):
        """Drop caches after GC frees or rewrites a segment."""
        self._descriptor_cache.pop(segment_id, None)
        self._cblock_cache.invalidate_segment(segment_id)

    def _read_cblock(self, segment_id, payload_offset, stored_length):
        """Fetch + decompress one cblock; returns (logical bytes, latency)."""
        cache_key = (segment_id, payload_offset)
        cached = self._cblock_cache.get(cache_key)
        if cached is not None:
            return cached, 0.0
        obs = self.obs
        span = None
        if obs is not None and obs.tracing:
            span = obs.begin("cblock-read", segment=segment_id,
                             offset=payload_offset)
        try:
            # Data still sitting in the open segio is served from RAM;
            # the commit already lives in NVRAM, so this is safe and fast.
            blob = self.segwriter.read_unflushed(
                segment_id, payload_offset, stored_length
            )
            latency = 0.0
            source = "segio-ram"
            if blob is None:
                descriptor = self.descriptor_for(segment_id)
                blob, latency = self.segreader.read_payload(
                    descriptor, payload_offset, stored_length
                )
                source = "media"
            data = parse_cblock(blob)
        except BaseException:
            if span is not None:
                obs.end(span, failed=True)
            raise
        if span is not None:
            obs.end(span, lat=latency, source=source)
        self._cblock_cache.put(cache_key, data)
        return data, latency

    def _fetch_cblock(self, location):
        """Dedup verify callback: the candidate cblock's bytes, or None."""
        try:
            data, _latency = self._read_cblock(
                location.segment_id, location.payload_offset, location.stored_length
            )
        except Exception:
            return None  # stale index entry: treat as a miss, never an error
        return data

    # ------------------------------------------------------------------
    # Write path

    def write(self, medium_id, offset, data):
        """Write ``data`` at (medium, offset); returns commit latency."""
        if not data:
            raise VolumeError("zero-length write")
        if offset % SECTOR or len(data) % SECTOR:
            raise VolumeError("writes must be 512 B aligned")
        degrade = self.degrade
        if degrade is not None:
            degrade.check_writable()
        cp = self.crashpoints
        if cp is not None:
            cp.hit("datapath.write-start", medium_id=medium_id, offset=offset)
        obs = self.obs
        span = None
        if obs is not None and obs.tracing:
            span = obs.begin("nvram-commit", nbytes=len(data))
        try:
            _fact, latency = self.pipeline.commit_raw_write(
                medium_id, offset, data
            )
        except BaseException:
            if span is not None:
                obs.end(span, crashed=True)
            raise
        if span is not None:
            obs.end(span, lat=latency)
        # Past this point the write is durable in NVRAM: a crash below
        # loses the acknowledgement, never the data (recovery replays).
        if cp is not None:
            cp.hit("datapath.post-commit", medium_id=medium_id, offset=offset)
        self.process_write(medium_id, offset, data)
        if cp is not None:
            cp.hit("datapath.post-process", medium_id=medium_id, offset=offset)
        self.pipeline.after_raw_write_processed()
        if degrade is not None and degrade.write_through:
            # nvram-degraded rung: the mirror is torn, so an ack backed
            # only by NVRAM is not durable enough. Push the commit all
            # the way to flash before returning; the replay debt this
            # write would have carried is settled by reaching media.
            self.pipeline.drain()
            degrade.note_write_through_drain()
        return latency

    def process_write(self, medium_id, offset, data):
        """Run the dedup/compress/segment pipeline (also recovery replay)."""
        self.logical_bytes_written += len(data)
        self._ingest(medium_id, offset, data)

    def _ingest(self, medium_id, offset, data):
        # Address-map entries are keyed by (medium, start offset), so a
        # new extent landing on the key of a longer one replaces it
        # wholesale — the one case where an overwrite must read to
        # write. Every other overlap stays in the map and the read path
        # overlays it by sequence number. Which keys this write inserts
        # is only known per chunk, after dedup has split it, so the one
        # range scan here just notes the extents that could lose a tail;
        # `_process_cblock` captures a tail if it lands on one, and the
        # captured bytes are re-ingested after the last chunk.
        end = offset + len(data)
        at_risk = self._at_risk_extents(medium_id, offset, end)
        tail = bytearray()
        for cblock_offset, chunk in split_write(offset, data):
            self._process_cblock(
                medium_id, cblock_offset, chunk, at_risk, end, tail
            )
        if tail:
            self._count_tail(len(tail))
            self._ingest(medium_id, end, bytes(tail))

    def _at_risk_extents(self, medium_id, offset, end):
        """{extent start: extent end} of the extents that start inside
        ``[offset, end)`` and run past ``end``: a fact inserted at one
        of these starts replaces the extent and orphans its bytes from
        ``end`` on. Empty for uniform-size rewrites and fresh ranges.
        """
        at_risk = {}
        for fact in self.tables.address_map.scan(
            (medium_id, offset), (medium_id, end - 1)
        ):
            extent_end = fact.key[1] + self._extent_logical_length(fact.value)
            if extent_end > end:
                at_risk[fact.key[1]] = extent_end
        return at_risk

    def _capture_tail(self, medium_id, end, at_risk, keys, tail):
        """Extend ``tail`` (the visible bytes from ``end`` on) to the
        end of every at-risk extent that an insert at one of ``keys``
        is about to replace. Must run before those inserts. An insert
        of this write changes what is visible past ``end`` only by
        replacing an at-risk extent, whose bytes are in ``tail`` by
        then; painting only past what ``tail`` holds therefore never
        reads a range an earlier chunk's insert has changed.
        """
        for key in keys:
            extent_end = at_risk.get(key)
            captured = len(tail)
            if extent_end is not None and extent_end > end + captured:
                tail.extend(bytes(extent_end - end - captured))
                self._paint(medium_id, end + captured, len(tail) - captured,
                            tail, captured, 0, [0.0])

    def _count_tail(self, nbytes):
        self.tails_reingested += 1
        self.tail_bytes_reingested += nbytes
        PERF.incr("displaced-tail")
        PERF.incr("displaced-tail-bytes", nbytes)

    def preserve_tails(self, medium_id, offset, length, keys):
        """Write back the tails that facts about to be inserted at
        ``keys`` (extent starts inside ``[offset, offset+length)``)
        would orphan — the capture of :meth:`_ingest` for a caller that
        inserts address-map facts itself (``unmap``'s holes). The tail
        goes back as an ordinary committed write at the range's end,
        NVRAM first, so a crash before the caller's inserts leaves the
        data as it was.
        """
        end = offset + length
        tail = bytearray()
        self._capture_tail(
            medium_id, end, self._at_risk_extents(medium_id, offset, end),
            keys, tail,
        )
        if tail:
            self._count_tail(len(tail))
            self.write(medium_id, end, bytes(tail))

    def _process_cblock(self, medium_id, offset, chunk, at_risk, write_end,
                        tail):
        obs = self.obs
        if self.config.inline_dedup:
            span = None
            if obs is not None and obs.tracing:
                span = obs.begin("dedup", nbytes=len(chunk))
            try:
                matches = self.deduper.find_matches(chunk)
            except BaseException:
                if span is not None:
                    obs.end(span, crashed=True)
                raise
            if span is not None:
                obs.end(span, matches=len(matches))
        else:
            matches = []
        # The extents this chunk inserts, in order: (start, stop, match),
        # match None for a unique run. The tail capture and the inserts
        # both read this one list, so the keys checked are the keys
        # written.
        inserts = []
        cursor = 0
        for match in matches:
            if match.byte_start > cursor:
                inserts.append((cursor, match.byte_start, None))
            cursor = match.byte_start + match.byte_length
            inserts.append((match.byte_start, cursor, match))
        if cursor < len(chunk):
            inserts.append((cursor, len(chunk), None))
        if at_risk:
            self._capture_tail(
                medium_id, write_end, at_risk,
                [offset + start for start, _stop, _match in inserts], tail,
            )
        for start, stop, match in inserts:
            if match is not None:
                self._record_dedup_extent(medium_id, offset + start, match)
            else:
                self._store_unique(medium_id, offset + start,
                                   chunk[start:stop])

    def _store_unique(self, medium_id, offset, data):
        """Compress + append one unique cblock, record its extent."""
        compressor = self.compressor if self.config.inline_compression else None
        if compressor is None:
            from repro.compression.engine import NullCompressor

            compressor = NullCompressor()
        obs = self.obs
        tracing = obs is not None and obs.tracing
        span = obs.begin("compress", nbytes=len(data)) if tracing else None
        blob, codec_id = build_cblock(data, compressor)
        if span is not None:
            obs.end(span, stored=len(blob))
        span = obs.begin("segio-append", nbytes=len(blob)) if tracing else None
        try:
            descriptor, payload_offset, flush_latency = (
                self.segwriter.append_data(blob)
            )
        except BaseException:
            if span is not None:
                obs.end(span, crashed=True)
            raise
        if span is not None:
            obs.end(span, lat=flush_latency, segment=descriptor.segment_id)
        self.compression_stats.note(len(data), len(blob), codec_id)
        self.pipeline.insert_derived(
            T.ADDRESS_MAP,
            (medium_id, offset),
            (T.EXTENT_DIRECT, descriptor.segment_id, payload_offset,
             len(blob), len(data)),
        )
        # Warm the cblock cache: freshly written data is the most likely
        # to be read (and to anchor dedup verifies) next.
        self._cblock_cache.put((descriptor.segment_id, payload_offset), data)
        self._record_hashes(descriptor.segment_id, payload_offset, len(blob), data)

    def _record_hashes(self, segment_id, payload_offset, stored_length, data):
        """Record every Nth sector hash for future dedup (Section 4.7).

        Only the sampled sectors are digested — the other 7/8 (at the
        default rate) were never going to be recorded, so hashing them
        here would be pure waste.
        """
        for sector, value in sampled_sector_hashes(
            data, self.config.dedup_sample_every
        ):
            self.dedup_index.record(
                value,
                DedupLocation(segment_id, payload_offset, stored_length, sector),
            )

    def _record_dedup_extent(self, medium_id, offset, match):
        location = match.location
        self.dedup_bytes_saved += match.byte_length
        self.pipeline.insert_derived(
            T.ADDRESS_MAP,
            (medium_id, offset),
            (T.EXTENT_DEDUP, location.segment_id, location.payload_offset,
             location.stored_length, match.byte_length, location.sector_index),
        )

    # ------------------------------------------------------------------
    # Read path

    def read(self, medium_id, offset, length):
        """Read a byte range; returns (bytes, latency)."""
        if length <= 0:
            raise VolumeError("zero-length read")
        pool = self.read_pool
        buffer = pool.acquire(length) if pool is not None else bytearray(length)
        latencies = [0.0]
        try:
            self._paint(medium_id, offset, length, buffer, 0, 0, latencies)
            return bytes(buffer), max(latencies)
        finally:
            if pool is not None:
                pool.release(buffer)

    def _paint(self, medium_id, offset, length, buffer, dest, depth, latencies):
        """Fill ``buffer[dest:dest+length]`` with (medium, offset)'s data."""
        if depth > MAX_PAINT_DEPTH:
            raise SnapshotError("medium chain too deep at medium %d" % medium_id)
        end = offset + length
        for row in self.medium_table.ranges_of(medium_id):
            sub_start = max(offset, row.start)
            sub_end = min(end, row.end)
            if sub_start >= sub_end:
                continue
            if row.target != MEDIUM_NONE:
                self._paint(
                    row.target,
                    row.target_offset + (sub_start - row.start),
                    sub_end - sub_start,
                    buffer,
                    dest + (sub_start - offset),
                    depth + 1,
                    latencies,
                )
        # This medium's own extents overlay whatever the chain supplied.
        self._overlay_extents(medium_id, offset, length, buffer, dest, latencies)

    def _overlay_extents(self, medium_id, offset, length, buffer, dest, latencies):
        end = offset + length
        scan_lo = (medium_id, max(0, offset - MAX_CBLOCK + SECTOR))
        scan_hi = (medium_id, end - 1)
        overlapping = []
        for fact in self.tables.address_map.scan(scan_lo, scan_hi):
            extent_offset = fact.key[1]
            logical_length = self._extent_logical_length(fact.value)
            if extent_offset + logical_length <= offset or extent_offset >= end:
                continue
            overlapping.append(fact)
        overlapping.sort(key=lambda fact: fact.seqno)
        for fact in overlapping:
            self._paint_extent(fact, offset, end, buffer, dest, latencies)

    @staticmethod
    def _extent_logical_length(value):
        tag = value[0]
        if tag == T.EXTENT_HOLE:
            return value[1]
        return value[4]

    def _paint_extent(self, fact, window_start, window_end, buffer, dest, latencies):
        extent_offset = fact.key[1]
        value = fact.value
        tag = value[0]
        logical_length = self._extent_logical_length(value)
        paint_lo = max(window_start, extent_offset)
        paint_hi = min(window_end, extent_offset + logical_length)
        if paint_lo >= paint_hi:
            return
        if tag == T.EXTENT_HOLE:
            data = b"\x00" * (paint_hi - paint_lo)
        else:
            _tag, segment_id, payload_offset, stored_length, _len = value[:5]
            cblock, latency = self._read_cblock(
                segment_id, payload_offset, stored_length
            )
            latencies.append(latency)
            skew_bytes = value[5] * SECTOR if tag == T.EXTENT_DEDUP else 0
            inner_lo = skew_bytes + (paint_lo - extent_offset)
            data = cblock[inner_lo : inner_lo + (paint_hi - paint_lo)]
            if len(data) != paint_hi - paint_lo:
                raise VolumeError(
                    "extent at (%d, %d) shorter than mapped range"
                    % (fact.key[0], extent_offset)
                )
        base = dest + (paint_lo - window_start)
        buffer[base : base + len(data)] = data

    # ------------------------------------------------------------------
    # Liveness accounting (GC + telemetry)

    def visible_extents(self):
        """Every visible address-map fact (latest per key, elisions applied)."""
        return list(self.tables.address_map.scan())

    def live_cblocks_by_segment(self):
        """segment_id -> {(payload_offset, stored_length)} of live cblocks."""
        by_segment = {}
        for fact in self.visible_extents():
            value = fact.value
            if value[0] == T.EXTENT_HOLE:
                continue
            segment_id = value[1]
            by_segment.setdefault(segment_id, set()).add((value[2], value[3]))
        return by_segment
