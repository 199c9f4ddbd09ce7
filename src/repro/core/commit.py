"""The commit pipeline (paper Figure 4).

Everything durable flows through here. A *drain* seals every dirty
memtable into patches and writes the patches into segment *log
records*; it runs in two tempos:

* **watermark drain** (frequent, ``_maybe_drain``): once NVRAM passes
  ``NVRAM_HIGH_WATERMARK``, seal and write the log records, but leave
  the open segio open, so segios leave the controller full. The first
  flush after the seal — when that segio fills, or at the next forced
  flush — trims NVRAM through the records the seal covered
  (``segio_flushed``). While that trim is pending no further watermark
  seal starts. Past ``NVRAM_FORCE_WATERMARK`` the watermark path drains
  in full instead, and a record too large for the room left flushes
  that segio first, so a pending trim never fills NVRAM.
* **forced drain** (``drain``, for every caller that needs durability
  now: ``PurityArray.drain``, GC's repoint and flatten barriers,
  ``unpin_segment``, the write-through rung, shutdown): seal, write,
  flush the open segio however empty it is, and trim NVRAM.

Draining never touches the boot region. A **checkpoint** (rare)
persists it — frontier and speculative sets, allocator state, counters,
and pointers to every patch persisted so far — when the frontier needs
a refill. It flushes first when a watermark seal is pending, so no boot
pointer names a log record that exists only in RAM.

Recovery coverage invariant: every fact is recoverable from (a) NVRAM
(WAL records not yet trimmed — including every record a watermark
drain sealed whose segio is still open, because NVRAM is trimmed only
after that segio's flush completes), (b) a patch pointer in the last
boot checkpoint, or (c) a log record inside the persisted frontier scan
set — because allocation only ever uses AUs from the persisted frontier,
patches persisted *after* the last checkpoint necessarily live in
frontier segments the recovery scan visits. This is exactly the
Figure 5 design, and it is why frontier/boot writes stay well under 1 %
of all writes. Recovery adopts what (b) and (c) supply with their
pointers (``adopt_persisted_patch``), so the invariant holds from then on.

Raw application writes commit to NVRAM (the client acknowledgement
point) and are replayed through the data path on recovery; the
address-map facts derived from them skip their own WAL record because a
drain always persists the derived facts and trims their raw record
together. A segment's ``SEGMENTS`` row has no raw record to be derived
from, so it commits to NVRAM itself (``insert_meta_unchecked``).
"""

from repro.core import tables as T
from repro.errors import OutOfSpaceError
from repro.pyramid.tuples import Fact, SequenceGenerator
from repro.pyramid.wal import MonotonicWAL, encode_commit_record

#: Facts per patch log record; large patches are chunked so each record
#: fits comfortably inside a segio's log region.
PATCH_CHUNK_FACTS = 64
#: Seal memtables once NVRAM passes this fill fraction; the open segio
#: that takes their log records flushes when it fills.
NVRAM_HIGH_WATERMARK = 0.5
#: Past this fill fraction the watermark path drains in full, flushing
#: the open segio however empty it is, so NVRAM never runs out.
NVRAM_FORCE_WATERMARK = 0.85


class CommitPipeline:
    """Sequence numbers + WAL + relations + drain/checkpoint machinery."""

    def __init__(self, tableset, nvram, segwriter, frontier, allocator,
                 boot_region, config):
        self.tables = tableset
        self.wal = MonotonicWAL(nvram)
        self.sequence = SequenceGenerator()
        self.segwriter = segwriter
        self.frontier = frontier
        self.allocator = allocator
        self.boot_region = boot_region
        self.config = config
        #: relation name -> {patch object: pointer tuple}. Keyed by
        #: the patch itself (identity semantics, strong reference):
        #: keying by id() would let Python reuse a dead patch's id
        #: and silently hand its pointer to a new, unpersisted patch.
        self._patch_pointers = {name: {} for name in tableset.names()}
        #: Segments the *last written boot checkpoint* references. They
        #: must stay pinned even after newer drains re-home their
        #: patches, because a crash before the next checkpoint recovers
        #: from the old pointers.
        self._checkpointed_identities = set()
        self._medium_id_hint = 1
        self._draining = False
        #: NVRAM record id a watermark drain sealed through while its log
        #: records wait in the open segio; the next flush trims to it.
        self._trim_pending = None
        self.drains = 0
        self.checkpoints = 0
        self.metadata_commits = 0

    @property
    def trim_pending(self):
        """NVRAM record id a watermark drain sealed through while its log
        records still wait in the open segio, or None."""
        return self._trim_pending

    # ------------------------------------------------------------------
    # Inserts

    def insert_meta(self, relation_name, key, value):
        """Insert one metadata fact: WAL first, then the memtable.

        Returns (fact, commit latency).
        """
        facts, latency = self.insert_meta_batch(relation_name, [(key, value)])
        return facts[0], latency

    def insert_meta_batch(self, relation_name, entries):
        """Insert many facts as one WAL record; returns (facts, latency)."""
        facts, latency = self.insert_meta_unchecked(relation_name, entries)
        self._maybe_drain()
        return facts, latency

    def insert_meta_unchecked(self, relation_name, entries):
        """:meth:`insert_meta_batch` without the NVRAM watermark check,
        for callers inside the segment writer or recovery, where a
        drain must not start."""
        relation = self.tables[relation_name]
        facts = [
            relation.make_fact(key, value, self.sequence.next())
            for key, value in entries
        ]
        latency = self._wal_commit(relation_name, facts)
        for fact in facts:
            relation.insert_fact(fact)
        self.metadata_commits += 1
        return facts, latency

    def insert_derived(self, relation_name, key, value, seqno=None):
        """Insert a fact derived from an already-committed raw record.

        Derived facts skip their own WAL commit: replaying the raw
        record regenerates them idempotently, and a drain persists them
        before (and together with) trimming the raw record. A write's
        facts take its raw record's ``seqno``, so in replay too a later
        operation's fact at the same key stays the latest there.
        """
        relation = self.tables[relation_name]
        fact = relation.make_fact(
            key, value, self.sequence.next() if seqno is None else seqno)
        relation.insert_fact(fact)
        return fact

    def commit_raw_write(self, medium_id, offset, data):
        """Persist one application write to NVRAM; returns (fact, latency).

        This is the client-visible commit point. The fact's value
        carries the raw bytes for recovery replay.
        """
        fact = Fact(
            key=(medium_id, offset),
            seqno=self.sequence.next(),
            value=(bytes(data),),
        )
        latency = self._wal_commit(T.RAW_WRITES, [fact])
        return fact, latency

    def _wal_commit(self, relation_name, facts):
        """Append one record to NVRAM; returns its commit latency.

        A record too large for what NVRAM has left while a watermark
        seal waits for its segio first flushes that segio, which trims
        the sealed records; past that, a full NVRAM still raises.
        """
        try:
            return self.wal.commit(relation_name, facts)[1]
        except OutOfSpaceError:
            if self._trim_pending is None:
                raise
        self.segwriter.flush()
        return self.wal.commit(relation_name, facts)[1]

    # ------------------------------------------------------------------
    # Durable elision (Section 4.10)
    #
    # An elide record is itself an immutable fact: it is committed to
    # the __elides relation through the normal WAL/patch path, *and*
    # applied to the target relation's in-memory elide table. Recovery
    # replays the __elides relation to rebuild every elide table, so
    # deletions survive crashes like any other write.

    @staticmethod
    def _predicate_to_spec(predicate):
        from repro.pyramid.elision import KeyPrefixPredicate, KeyRangePredicate

        if isinstance(predicate, KeyRangePredicate):
            as_of = -1 if predicate.as_of_seq is None else predicate.as_of_seq
            return ("range", predicate.lo, predicate.hi, as_of, predicate.field)
        if isinstance(predicate, KeyPrefixPredicate):
            as_of = -1 if predicate.as_of_seq is None else predicate.as_of_seq
            return ("prefix", tuple(predicate.prefix), as_of)
        raise TypeError("cannot persist predicate %r" % (predicate,))

    @staticmethod
    def spec_to_predicate(spec):
        """Inverse of the spec encoding (recovery replay)."""
        from repro.pyramid.elision import KeyPrefixPredicate, KeyRangePredicate

        if spec[0] == "range":
            _kind, lo, hi, as_of, field = spec
            return KeyRangePredicate(
                lo, hi, as_of_seq=None if as_of == -1 else as_of, field=field
            )
        if spec[0] == "prefix":
            _kind, prefix, as_of = spec
            return KeyPrefixPredicate(
                tuple(prefix), as_of_seq=None if as_of == -1 else as_of
            )
        raise ValueError("unknown elide spec %r" % (spec,))

    def elide(self, target_name, predicate):
        """Durably delete: persist the elide record, then apply it."""
        spec = self._predicate_to_spec(predicate)
        self.insert_meta(T.ELIDES, (target_name, spec), ())
        self.tables[target_name].elide(predicate)

    def elide_key_range(self, target_name, lo, hi, field=0):
        """Durable range deletion on ``target_name``."""
        from repro.pyramid.elision import KeyRangePredicate

        self.elide(target_name, KeyRangePredicate(lo, hi, field=field))

    def elide_prefix(self, target_name, prefix, bound_now=False):
        """Durable prefix deletion.

        ``bound_now=True`` stamps the predicate with the current
        sequence number, so facts written *later* under the same key
        prefix (e.g. a recreated volume name) are not swallowed.
        """
        from repro.pyramid.elision import KeyPrefixPredicate

        as_of = self.sequence.next() if bound_now else None
        self.elide(
            target_name, KeyPrefixPredicate(tuple(prefix), as_of_seq=as_of)
        )

    def replay_elides(self):
        """Recovery: rebuild every elide table from the __elides facts."""
        replayed = 0
        for fact in self.tables[T.ELIDES].scan():
            target_name, spec = fact.key
            if target_name not in self.tables.relations:
                continue
            predicate = self.spec_to_predicate(spec)
            self.tables[target_name].elide(predicate)
            replayed += 1
        return replayed

    def _maybe_drain(self):
        nvram = self.wal.nvram
        used = nvram.bytes_used
        if used > NVRAM_FORCE_WATERMARK * nvram.capacity_bytes:
            self.drain()
        elif (used > NVRAM_HIGH_WATERMARK * nvram.capacity_bytes
              and self._trim_pending is None):
            self.drain(flush=False)

    def after_raw_write_processed(self):
        """Hook the data path calls once a raw write's facts are inserted."""
        self._maybe_drain()

    # ------------------------------------------------------------------
    # Drain: seal + persist patches + flush + trim

    def _persist_patch(self, relation_name, patch):
        """Write one patch into segment log records; returns its pointer.

        Pointer format: a tuple of (placements_flat, offset, length)
        triples, one per chunk — self-sufficient locators recovery can
        read before any table exists.
        """
        facts = list(patch)
        pointer_chunks = []
        for start in range(0, len(facts), PATCH_CHUNK_FACTS):
            chunk = facts[start : start + PATCH_CHUNK_FACTS]
            blob = encode_commit_record(relation_name, chunk)
            descriptor, locator, _latency = self.segwriter.append_log_record(
                blob,
                seq_min=min(fact.seqno for fact in chunk),
                seq_max=max(fact.seqno for fact in chunk),
            )
            flat_placements = tuple(
                item for drive, au in descriptor.placements for item in (drive, au)
            )
            pointer_chunks.append((flat_placements, locator[0], locator[1]))
        return tuple(pointer_chunks)

    def drain(self, flush=True):
        """Seal dirty memtables, persist patches, flush, trim NVRAM.

        Returns simulated latency (flush cost). ``flush=False`` is the
        watermark tempo: a non-empty open segio stays open, and the next
        flush trims NVRAM through what this drain sealed
        (:meth:`segio_flushed`). Reentrancy-guarded: persisting patches
        appends log records, which can trigger the NVRAM watermark check
        recursively.
        """
        if self._draining:
            return 0.0
        self._draining = True
        try:
            wal_snapshot = self.wal.nvram.last_record_id
            for relation in self.tables:
                relation.seal()
                pointers = self._patch_pointers[relation.name]
                live = list(relation.pyramid.patches)
                live_ids = {id(patch) for patch in live}
                for patch in live:
                    if patch not in pointers:
                        pointers[patch] = self._persist_patch(
                            relation.name, patch
                        )
                for stale in [p for p in pointers if id(p) not in live_ids]:
                    del pointers[stale]
            self.drains += 1
            segio = self.segwriter.current_segio
            if not flush and segio is not None and not (
                    segio.finalized or segio.is_empty):
                self._trim_pending = wal_snapshot
                return 0.0
            latency = self.segwriter.flush()
            self.wal.mark_persisted(wal_snapshot)
            return latency
        finally:
            self._draining = False

    def segio_flushed(self, _descriptor, _segio):
        """Segment writer hook: the first flush after a watermark seal
        puts the last of its log records on flash, so NVRAM trims
        through the records that seal covered."""
        if self._trim_pending is not None:
            sealed_through, self._trim_pending = self._trim_pending, None
            self.wal.mark_persisted(sealed_through)

    def compact(self):
        """Background LSM maintenance: merge patches, dropping elisions.

        Merged patches lose their pointers and are re-persisted by the
        next drain.
        """
        for relation in self.tables:
            relation.compact()

    # ------------------------------------------------------------------
    # Checkpoint: the boot-region write

    def checkpoint(self, extra_state=None):
        """Refill the frontier and persist the boot region.

        Returns simulated latency. Called when the frontier runs dry
        (via the segment writer's checkpointer hook) and at clean
        shutdowns.
        """
        if self._trim_pending is not None:
            # Boot pointers may name the pending seal's log records.
            self.segwriter.flush()
        self.frontier.refill()
        open_descriptor = self.segwriter.current_descriptor
        open_units = (
            tuple(tuple(pair) for pair in open_descriptor.placements)
            if open_descriptor is not None
            else ()
        )
        checkpoint = {
            "frontier": tuple(self.frontier.current_units()),
            "speculative": tuple(self.frontier.speculative_units()),
            # The open segment may keep absorbing log records after this
            # checkpoint; recovery must scan its AUs too.
            "open_units": open_units,
            "used_units": tuple(self.allocator.used_units()),
            "next_segment_id": self._peek_next_segment_id(),
            "next_seqno": self.sequence.last_issued + 1,
            "next_medium_id": self._medium_id_hint,
            "patch_pointers": self._encode_pointers(),
        }
        if extra_state:
            checkpoint.update(extra_state)
        latency = self.boot_region.write_checkpoint(checkpoint)
        self.frontier.mark_persisted()
        self.restore_checkpoint_identities(checkpoint["patch_pointers"])
        self.checkpoints += 1
        return latency

    def _peek_next_segment_id(self):
        # itertools.count has no peek; probe and restore.
        probe = next(self.segwriter._segment_ids)
        self.segwriter.set_next_segment_id(probe)
        return probe

    def set_medium_id_hint(self, next_medium_id):
        """Record the medium counter for the next checkpoint."""
        self._medium_id_hint = max(self._medium_id_hint, next_medium_id)

    def _encode_pointers(self):
        encoded = []
        for relation_name, pointers in self._patch_pointers.items():
            for pointer in pointers.values():
                encoded.append((relation_name, pointer))
        return tuple(encoded)

    def unpin_segment(self, identity):
        """Move patch log records out of one segment so GC can free it.

        ``identity`` is the segment's first (drive, au) placement pair.
        Dropping the in-memory pointers makes the next drain re-persist
        those patches into the open segment; the checkpoint then points
        the boot region at the new copies *before* the caller destroys
        the old ones. Returns True if anything was re-homed.
        """
        open_descriptor = self.segwriter.current_descriptor
        if (
            open_descriptor is not None
            and tuple(open_descriptor.placements[0]) == tuple(identity)
        ):
            # Re-homed patches must not land back in the segment being
            # unpinned.
            self.segwriter.retire_current_segment()
        changed = False
        for pointers in self._patch_pointers.values():
            for patch, pointer in list(pointers.items()):
                for flat_placements, _offset, _length in pointer:
                    if (flat_placements[0], flat_placements[1]) == identity:
                        del pointers[patch]
                        changed = True
                        break
        if changed or identity in self._checkpointed_identities:
            self.drain()
            self.checkpoint()
            changed = True
        return changed

    def adopt_persisted_patch(self, relation_name, patch, pointer):
        """Recovery: install a patch already on flash at ``pointer``, as
        if a drain had written it there (pinned, never persisted again)."""
        self.tables[relation_name].adopt_patch(patch)
        self._patch_pointers[relation_name][patch] = pointer

    def restore_checkpoint_identities(self, patch_pointers):
        """Pin the segments a boot checkpoint references: the one just
        written, or, at recovery, the one read.

        Until this controller writes its own checkpoint, a further crash
        recovers from the *old* boot pointers — GC must not free or
        reuse the segments they reference.
        """
        self._checkpointed_identities = {
            (pointer_chunk[0][0], pointer_chunk[0][1])
            for _relation_name, pointer in patch_pointers
            for pointer_chunk in pointer
        }

    def pinned_segment_ids(self):
        """Segments GC must not collect: those holding live patch log
        records, plus those the last boot checkpoint still points at."""
        pinned = set(self._checkpointed_identities)
        for pointers in self._patch_pointers.values():
            for pointer in pointers.values():
                for flat_placements, _offset, _length in pointer:
                    # placements identify the segment uniquely enough for
                    # pinning via its first (drive, au) pair.
                    pinned.add((flat_placements[0], flat_placements[1]))
        return pinned
