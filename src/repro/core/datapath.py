"""The data path: application writes in, application reads out.

Write path (Sections 4.6–4.7): a write is committed to NVRAM (the
acknowledged latency), split into cblock-sized pieces matching the
write, deduplicated inline (lookup every sector hash, byte-verify,
anchor-extend), and the unique remainder is compressed into cblocks
appended to the open segio. Address-map facts record where everything
went; they are derived facts, replayable from the raw NVRAM record.

Read path (Sections 3.4, 4.5): plan, fetch, join. The plan takes each
medium's overlapping extents newest first, keeps only the pieces no
newer extent covers, and descends the medium chain only under the bytes
still uncovered — each medium's extents are a patch over its underlying
medium. The fetch reads the planned cblocks the cache lacks, one device
read per run of payload-adjacent cblocks in a segio, as a segio was
written (Section 4.4). Extra random reads (dedup references, chain
hops) are the price of the capacity savings, and flash makes them cheap.
"""

import bisect
from collections import OrderedDict

from repro.compression.cblock import (build_cblock, parse_cblock,
                                      split_write, unpack_cblock)
from repro.compression.engine import (
    CompressionStats,
    NullCompressor,
    ZlibCompressor,
)
from repro.compression.helper import compress_helper, inflate_helper
from repro.core import tables as T
from repro.dedup.hashing import HASH_BYTES, hash_values, sector_hash_vector
from repro.dedup.index import DedupIndex, DedupLocation
from repro.dedup.inline import InlineDeduper
from repro.errors import SnapshotError, VolumeError
from repro.layout.segment import SegmentDescriptor
from repro.mediums.medium import MEDIUM_NONE
from repro.obs.trace import NULL_OBS
from repro.units import MAX_CBLOCK, SECTOR

#: Depth guard for medium recursion (GC keeps real chains <= 3).
MAX_PAINT_DEPTH = 64


#: Cblock-cache hits, misses and evictions summed over every cache in
#: the process, reported by :mod:`repro.core.telemetry` for the
#: ``benchmarks/perf`` harness. Nothing in the program reads it.
CACHE_TALLY = dict.fromkeys(
    ("cblock-cache-hit", "cblock-cache-miss", "cblock-cache-eviction"), 0)


class CBlockCache:
    """LRU cache of decompressed cblocks, indexed by segment.

    Keys are (segment_id, payload_offset); values are immutable
    ``bytes`` the cache owns, never views of a caller's buffer, so
    readers slice them and dedup compares them (memcmp) without a
    defensive copy. A per-segment key index makes
    :meth:`invalidate_segment` proportional to the entries cached *for
    that segment* instead of a scan of the whole cache. Each cache
    counts its own hits, misses, evictions and invalidations; hits,
    misses and evictions also add to the process-wide
    :data:`CACHE_TALLY`.
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
            CACHE_TALLY["cblock-cache-miss"] += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        CACHE_TALLY["cblock-cache-hit"] += 1
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
            CACHE_TALLY["cblock-cache-eviction"] += 1

    def invalidate_segment(self, segment_id):
        """Drop every entry of one segment; returns how many went."""
        keys = self._segment_keys.pop(segment_id, None)
        if not keys:
            return 0
        for key in keys:
            del self._entries[key]
        self.invalidations += len(keys)
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
        self.compressor = (ZlibCompressor() if config.inline_compression
                           else NullCompressor())
        self.compression_stats = CompressionStats()
        self.dedup_index = DedupIndex(
            recent_capacity=config.dedup_recent_capacity,
            frequent_capacity=config.dedup_frequent_capacity,
        )
        self.deduper = InlineDeduper(self.dedup_index, self._fetch_cblock)
        self._cblock_cache = CBlockCache(config.cblock_cache_entries)
        #: segment id -> descriptor, until the segment table next changes
        #: (a GC pass elides the row of every segment it frees).
        self._descriptors = self.tables.segments.memo("descriptor")
        #: Fault-injection crashpoint router (see :mod:`repro.faults`).
        self.crashpoints = None
        #: Observability handle (see :mod:`repro.obs`); the array wires
        #: its own in. Standalone datapaths keep the always-off NULL_OBS.
        self.obs = NULL_OBS
        #: Optional :class:`repro.degrade.DegradeEngine`; wired by the
        #: array. Gates writes (read-only rung) and forces write-through
        #: flushing while the NVRAM mirror is torn.
        self.degrade = None
        self.logical_bytes_written = 0
        #: Bytes written as references instead of stored.
        self.dedup_bytes_saved = 0
        #: Extents replaced at their key whose remainder was kept by
        #: reference, and the bytes kept (see :meth:`_remainder`).
        self.tails_repointed = 0
        self.tail_bytes_repointed = 0

    # ------------------------------------------------------------------
    # Physical plumbing

    def descriptor_for(self, segment_id):
        """Resolve a segment id to its descriptor via the segment table."""
        cached = self._descriptors.get(segment_id)
        if cached is not None:
            return cached
        fact = self.tables.segments.get((segment_id,))
        if fact is None:
            raise VolumeError("segment %d is unknown" % segment_id)
        placements = tuple(tuple(pair) for pair in fact.value[0])
        descriptor = SegmentDescriptor(segment_id=segment_id, placements=placements)
        self._descriptors[segment_id] = descriptor
        return descriptor

    def drop_caches(self):
        """Empty the controller's cblock cache (tests and failover drills)."""
        self._cblock_cache.clear()

    def invalidate_segment(self, segment_id):
        """Drop cached cblocks after GC frees or rewrites a segment."""
        self._cblock_cache.invalidate_segment(segment_id)

    def _read_cblock(self, segment_id, payload_offset, stored_length):
        """Fetch + decompress one cblock; returns (logical bytes, latency)."""
        cache_key = (segment_id, payload_offset)
        cached = self._cblock_cache.get(cache_key)
        if cached is not None:
            return cached, 0.0
        blob, latency = self._read_run(
            segment_id, payload_offset, payload_offset + stored_length
        )
        data = parse_cblock(blob)
        self._cblock_cache.put(cache_key, data)
        return data, latency

    def _read_run(self, segment_id, start, end):
        """Read payload ``[start, end)`` of one segio; returns (blob,
        latency)."""
        with self.obs.span("cblock-read", segment=segment_id,
                           offset=start) as span:
            # Data still sitting in the open segio is served from RAM;
            # the commit already lives in NVRAM, so this is safe and fast.
            blob = self.segwriter.read_unflushed(segment_id, start, end - start)
            latency = 0.0
            source = "segio-ram"
            if blob is None:
                blob, latency = self.segreader.read_payload(
                    self.descriptor_for(segment_id), start, end - start
                )
                source = "media"
            span.set(lat=latency, source=source)
        return blob, latency

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
        with self.obs.span("nvram-commit", nbytes=len(data)) as span:
            fact, latency = self.pipeline.commit_raw_write(
                medium_id, offset, data
            )
            span.set(lat=latency)
        # Past this point the write is durable in NVRAM: a crash below
        # loses the acknowledgement, never the data (recovery replays).
        if cp is not None:
            cp.hit("datapath.post-commit", medium_id=medium_id, offset=offset)
        self.process_write(medium_id, offset, data, fact.seqno)
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

    def process_write(self, medium_id, offset, data, rank):
        """Run the dedup/compress/segment pipeline (also recovery replay).

        ``rank`` (the raw record's seqno; a copy-up's is fresh) is each
        new extent's rank and fact seqno, live and in replay alike. An
        extent inserted on the key of a longer one replaces it; every
        other overlap is overlaid by the read path. The keys inserted
        are known only per chunk, after dedup, so one range scan notes
        the extents that could be replaced and `_process_cblock` keeps
        the remainder of each one it lands on.

        A large write's chunks are compressed ahead on the helper thread
        while this thread works through them (see
        :mod:`repro.compression.helper`); the helper is done with them
        before this returns or raises.
        """
        self.logical_bytes_written += len(data)
        end = offset + len(data)
        at_risk = self._at_risk_extents(medium_id, offset, end)
        chunks = list(split_write(offset, data))
        with compress_helper(chunks, self.compressor) as helper:
            for index, (cblock_offset, chunk) in enumerate(chunks):
                self._process_cblock(medium_id, cblock_offset, chunk, at_risk,
                                     end, rank, helper.reach(index))

    def _at_risk_extents(self, medium_id, offset, end):
        """{extent start: fact} of the extents that start inside
        ``[offset, end)`` and run past ``end``: a fact inserted at one
        of these starts replaces the extent and orphans its bytes from
        ``end`` on. Empty for uniform-size rewrites and fresh ranges.
        """
        at_risk = {}
        for fact in self._extents_between(medium_id, offset, end - 1):
            if fact.key[1] + T.extent_length(fact.value) > end:
                at_risk[fact.key[1]] = fact
        return at_risk

    def _remainder(self, medium_id, end, replaced):
        """The address-map entries that keep what ``replaced`` still
        supplies from ``end`` on, for an insert about to replace it.

        The read path's plan names the pieces; each becomes a reference
        into the cblock ``replaced`` points at, or a hole, so no byte is
        read or stored again. Pieces of newer facts are left alone: those
        facts stay. A piece's key may hold an older fact, hidden under
        the piece but perhaps visible past it, whose remainder is kept
        from the piece's end by the same rule; keys only grow.
        """
        entries = []
        pending = [(end, replaced)]
        while pending:
            lo, fact = pending.pop()
            value = fact.value
            hi = fact.key[1] + T.extent_length(value)
            if hi <= lo:
                continue
            pieces = []
            self._plan(medium_id, [(lo, hi)], 0, 0, pieces, holes=True)
            kept = 0
            for at, owner, inner, nbytes in pieces:
                if owner.key != fact.key:
                    continue
                for hidden in self._extents_between(medium_id, at, at):
                    pending.append((at + nbytes, hidden))
                entries.append(((medium_id, at),
                                T.trimmed(value, inner, nbytes)))
                kept += nbytes
            if kept:
                self.tails_repointed += 1
                self.tail_bytes_repointed += kept
        return entries

    def remainder_entries(self, medium_id, offset, length, keys):
        """The remainder entries (see :meth:`_remainder`) of the extents
        that facts about to be inserted at ``keys`` (starts inside
        ``[offset, offset+length)``) would replace — for a caller that
        commits those facts itself (``unmap``'s holes), in one WAL
        record with these entries.
        """
        end = offset + length
        at_risk = self._at_risk_extents(medium_id, offset, end)
        entries = []
        for key in keys:
            replaced = at_risk.pop(key, None)
            if replaced is not None:
                entries.extend(self._remainder(medium_id, end, replaced))
        self.flush_referenced(entries)
        return entries

    def flush_referenced(self, entries):
        """Durability barrier, as for GC's repoint: a WAL fact must not
        point at bytes that exist only in the open segio's RAM, so flush
        it if any ``(key, value)`` entry about to be logged refers to a
        cblock still there."""
        if any(not T.is_hole(value) and self.segwriter.read_unflushed(
                *T.extent_location(value)) is not None
               for _key, value in entries):
            self.segwriter.flush()

    def _process_cblock(self, medium_id, offset, chunk, at_risk, write_end,
                        rank, job=None):
        # One hash pass per chunk: dedup probes with it, and each unique
        # run's cblock is recorded from its slice of it. ``job``, if not
        # None, compresses the whole chunk on the helper thread; it is
        # used only if the chunk stays one unique run.
        vector = sector_hash_vector(chunk)
        if self.config.inline_dedup:
            deduper = self.deduper
            with self.obs.span("dedup", nbytes=len(chunk)) as span:
                fetched = deduper.anchors_fetched
                screened = deduper.anchors_screened
                matches = deduper.find_matches(chunk, vector)
                span.set(matches=len(matches),
                         fetched=deduper.anchors_fetched - fetched,
                         screened=deduper.anchors_screened - screened)
        else:
            matches = []
        # The extents this chunk inserts, in order: (start, stop, match),
        # match None for a unique run. The remainder check and the
        # inserts both read this one list, so the keys checked are the
        # keys written.
        inserts = []
        cursor = 0
        for match in matches:
            if match.byte_start > cursor:
                inserts.append((cursor, match.byte_start, None))
            cursor = match.byte_start + match.byte_length
            inserts.append((match.byte_start, cursor, match))
        if cursor < len(chunk):
            inserts.append((cursor, len(chunk), None))
        if job is not None and (len(inserts) != 1 or inserts[0][2] is not None):
            job.claim()  # if not started, the helper now skips it
            job = None
        if at_risk:
            for start, _stop, _match in inserts:
                replaced = at_risk.pop(offset + start, None)
                if replaced is not None:
                    for key, value in self._remainder(medium_id, write_end,
                                                      replaced):
                        self.pipeline.insert_derived(T.ADDRESS_MAP, key, value,
                                                     rank)
        for start, stop, match in inserts:
            if match is not None:
                self._record_dedup_extent(medium_id, offset + start, match,
                                          rank)
            else:
                self._store_unique(
                    medium_id, offset + start, chunk[start:stop],
                    vector[start // SECTOR * HASH_BYTES
                           : stop // SECTOR * HASH_BYTES],
                    rank, job,
                )

    def _store_unique(self, medium_id, offset, data, vector, rank, job):
        """Compress + append one unique cblock, record its extent."""
        obs = self.obs
        with obs.span("compress", nbytes=len(data)) as span:
            blob, codec_id = build_cblock(data, self.compressor, job)
            span.set(stored=len(blob))
        with obs.span("segio-append", nbytes=len(blob)) as span:
            descriptor, payload_offset, flush_latency = (
                self.segwriter.append_data(blob)
            )
            span.set(lat=flush_latency, segment=descriptor.segment_id)
        self.compression_stats.note(len(data), len(blob), codec_id)
        self.pipeline.insert_derived(
            T.ADDRESS_MAP,
            (medium_id, offset),
            T.extent_ref(descriptor.segment_id, payload_offset, len(blob),
                         len(data), 0, len(data), rank),
            rank,
        )
        # Warm the cblock cache: freshly written data is the most likely
        # to be read (and to anchor dedup verifies) next.
        self._cblock_cache.put((descriptor.segment_id, payload_offset), data)
        self._record_hashes(descriptor.segment_id, payload_offset, len(blob),
                            vector)

    def _record_hashes(self, segment_id, payload_offset, stored_length, vector):
        """Record every Nth sector hash for future dedup (Section 4.7).

        ``vector`` is the cblock's sector hashes, sliced from the pass
        dedup already made over the chunk. Every entry shares it, so
        dedup can rule out an anchor into this cblock without a fetch.
        """
        hashes = hash_values(vector)
        for sector in range(0, len(hashes), self.config.dedup_sample_every):
            self.dedup_index.record(
                hashes[sector],
                DedupLocation(segment_id, payload_offset, stored_length,
                              sector, vector),
            )

    def _record_dedup_extent(self, medium_id, offset, match, rank):
        location = match.location
        self.dedup_bytes_saved += match.byte_length
        self.pipeline.insert_derived(
            T.ADDRESS_MAP,
            (medium_id, offset),
            T.extent_ref(location.segment_id, location.payload_offset,
                         location.stored_length,
                         len(location.cblock_hashes) // HASH_BYTES * SECTOR,
                         location.sector_index, match.byte_length, rank),
            rank,
        )

    # ------------------------------------------------------------------
    # Read path

    def read(self, medium_id, offset, length):
        """Read a byte range; returns (bytes, latency).

        Plan, then fetch, then join: the plan names the extent piece
        that supplies each visible byte, the fetch reads every planned
        cblock the cache lacks, and one join copies the pieces, in
        place order, into the result. Bytes a hole or nothing maps are
        zero.
        """
        if length <= 0:
            raise VolumeError("zero-length read")
        pieces = []
        self._plan(medium_id, [(offset, offset + length)], -offset, 0, pieces)
        cblocks, latency = self._fetch(pieces)
        pieces.sort(key=lambda piece: piece[0])  # disjoint: one per place
        parts = []
        cursor = 0
        for at, fact, inner, nbytes in pieces:
            if at > cursor:
                parts.append(bytes(at - cursor))
            location = T.extent_location(fact.value)
            data = memoryview(cblocks[location[:2]])[inner : inner + nbytes]
            if len(data) != nbytes:
                raise VolumeError(
                    "extent at (%d, %d) shorter than mapped range"
                    % (fact.key[0], fact.key[1])
                )
            parts.append(data)
            cursor = at + nbytes
        if cursor < length:
            parts.append(bytes(length - cursor))
        return b"".join(parts), latency

    def _plan(self, medium_id, windows, shift, depth, pieces, holes=False):
        """Append the extent pieces that supply ``windows`` to ``pieces``.

        ``windows`` are sorted, disjoint ``[lo, hi)`` ranges of
        ``medium_id``; the byte at ``x`` lands at result position
        ``x + shift``. This medium's extents claim bytes by rank, newest
        first, each only those no newer extent has claimed, so a hidden
        extent yields no piece and is never fetched. A piece is (result
        position, fact, offset into its cblock, length); a hole claims
        its bytes and yields a piece only with ``holes`` set (never on
        a read). The medium chain is descended only under the bytes
        left unclaimed.
        """
        if depth > MAX_PAINT_DEPTH:
            raise SnapshotError("medium chain too deep at medium %d" % medium_id)
        lo, hi = windows[0][0], windows[-1][1]
        overlapping = []
        for fact in self._extents_between(
            medium_id, max(0, lo - MAX_CBLOCK + SECTOR), hi - 1
        ):
            if fact.key[1] + T.extent_length(fact.value) > lo:
                overlapping.append(fact)
        overlapping.reverse()  # equal ranks are disjoint: fetch keys descending
        overlapping.sort(key=lambda fact: T.extent_rank(fact.value),
                         reverse=True)
        for fact in overlapping:
            value = fact.value
            start = fact.key[1]
            end = start + T.extent_length(value)
            hole = T.is_hole(value)
            skew = T.extent_skew(value)
            unclaimed = []
            for window_lo, window_hi in windows:
                claim_lo = max(window_lo, start)
                claim_hi = min(window_hi, end)
                if claim_lo >= claim_hi:
                    unclaimed.append((window_lo, window_hi))
                    continue
                if holes or not hole:
                    pieces.append((claim_lo + shift, fact,
                                   skew + claim_lo - start, claim_hi - claim_lo))
                if window_lo < claim_lo:
                    unclaimed.append((window_lo, claim_lo))
                if claim_hi < window_hi:
                    unclaimed.append((claim_hi, window_hi))
            windows = unclaimed
            if not windows:
                return
        for row in self.medium_table.ranges_of(medium_id):
            if row.target == MEDIUM_NONE:
                continue
            delta = row.target_offset - row.start
            below = [
                (max(window_lo, row.start) + delta, min(window_hi, row.end) + delta)
                for window_lo, window_hi in windows
                if window_lo < row.end and window_hi > row.start
            ]
            if below:
                self._plan(row.target, below, shift - delta, depth + 1, pieces,
                           holes)

    def _fetch(self, pieces):
        """Every planned cblock, decompressed; returns ({(segment,
        payload offset): bytes}, latency).

        Each cblock is looked up in the cache once, in plan order. The
        misses are read as runs of payload-adjacent cblocks, one read
        per run, and every cblock in a run takes the run's latency; each
        miss's header is parsed once. A large fetch's zlib cblocks are
        inflated from both ends, by this thread from the first and the
        helper thread from the last (see
        :mod:`repro.compression.helper`), and the cache is filled in
        ``misses`` order either way.
        """
        cache = self._cblock_cache
        cblocks = {}
        misses = {}  # (segment, payload offset) -> stored length
        for _at, fact, _inner, _nbytes in pieces:
            location = T.extent_location(fact.value)
            key = location[:2]
            if key in cblocks or key in misses:
                continue
            data = cache.get(key)
            if data is None:
                misses[key] = location[2]
            else:
                cblocks[key] = data
        if not misses:
            return cblocks, 0.0
        blobs = {}
        latency = 0.0
        for segment_id, start, end, run in self._runs(misses):
            blob, run_latency = self._read_run(segment_id, start, end)
            latency = max(latency, run_latency)
            view = memoryview(blob)
            for payload_offset, stored_length in run:
                lo = payload_offset - start
                blobs[(segment_id, payload_offset)] = view[lo : lo + stored_length]
        headers = [unpack_cblock(blobs[key]) for key in misses]
        with inflate_helper(headers) as helper:
            for index, (key, header) in enumerate(zip(misses, headers)):
                data = parse_cblock(blobs[key], helper.reach(index), header)
                cache.put(key, data)
                cblocks[key] = data
        return cblocks, latency

    def _runs(self, misses):
        """Group {(segment, payload offset): stored length} into runs of
        payload-adjacent cblocks of one segio, in payload order: a list
        of [segment, start, end, [(payload offset, stored length), ...]].
        A run reads no byte outside its cblocks.
        """
        per_segio = self.config.segment_geometry.payload_per_segio
        runs = []
        for segment_id, payload_offset in sorted(misses):
            stored_length = misses[(segment_id, payload_offset)]
            run = runs[-1] if runs else None
            if (run is not None and run[0] == segment_id
                    and run[2] == payload_offset
                    and run[1] // per_segio == payload_offset // per_segio):
                run[2] += stored_length
                run[3].append((payload_offset, stored_length))
            else:
                runs.append([segment_id, payload_offset,
                             payload_offset + stored_length,
                             [(payload_offset, stored_length)]])
        return runs

    def _extents_between(self, medium_id, lo, hi):
        """The visible extents of ``medium_id`` keyed in ``[lo, hi]``,
        bisected from the medium's view in the address map."""
        starts, facts = self.tables.address_map.view(medium_id)
        return facts[bisect.bisect_left(starts, lo)
                     : bisect.bisect_right(starts, hi)]

    # ------------------------------------------------------------------
    # Liveness accounting (GC + telemetry)

    def visible_extents(self):
        """Every visible address-map fact (latest per key, elisions applied)."""
        return list(self.tables.address_map.scan())

    def live_cblocks_by_segment(self):
        """segment_id -> {(payload_offset, stored_length)} of live cblocks."""
        by_segment = {}
        for fact in self.visible_extents():
            if not T.is_hole(fact.value):
                segment_id, offset, stored = T.extent_location(fact.value)
                by_segment.setdefault(segment_id, set()).add((offset, stored))
        return by_segment
