"""Crash recovery and controller failover (paper Section 4.3, Figure 5).

Recovery rebuilds a controller's in-memory state from three durable
sources, cheapest first:

1. **Boot region** — frontier/speculative sets, allocator state,
   counters, and pointers to every patch persisted before the last
   checkpoint. Loading patches is a handful of random reads.
2. **Frontier scan** — segio headers in the persisted frontier and
   speculative AUs. Because the allocator only ever uses frontier AUs,
   every segment written since the checkpoint lives here; their headers
   surface the records no boot pointer names. (The full-array scan this
   replaces is the 12 s baseline; the frontier scan is the 0.1 s fix.)
3. **NVRAM** — commit records not yet trimmed: metadata facts are
   unioned in, raw application writes are replayed through the data
   path. NVRAM covers them until the next drain.

Each log record is read once and stays put: steps 1–2 adopt what they
read as patches that keep pointers to it (one per relation for the
scan), so no drain writes them again and a checkpoint points at them.
Because all tuples are immutable facts, recovery is a set union —
re-inserting anything already present is harmless.
"""

from dataclasses import dataclass, field

from repro.core import tables as T
from repro.errors import AllocationError, DataLossError, UncorrectableError
from repro.layout.segment import SegmentDescriptor
from repro.pyramid.patch import Patch
from repro.pyramid.wal import decode_commit_record


@dataclass
class RecoveryReport:
    """Timing and volume accounting for one recovery."""

    boot_latency: float = 0.0
    patch_load_latency: float = 0.0
    scan_latency: float = 0.0
    nvram_latency: float = 0.0
    replay_latency: float = 0.0
    aus_scanned: int = 0
    headers_found: int = 0
    patches_loaded: int = 0
    facts_recovered: int = 0
    raw_writes_replayed: int = 0
    log_records_read: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def total_latency(self):
        """End-to-end recovery time: must beat the 30 s client timeout."""
        return (
            self.boot_latency
            + self.patch_load_latency
            + self.scan_latency
            + self.nvram_latency
            + self.replay_latency
        )


def _unflatten_placements(flat):
    return tuple((flat[i], flat[i + 1]) for i in range(0, len(flat), 2))


def recover_array(cls, config, shelf, boot_region, clock,
                  full_scan=False, warm_cache_fraction=0.0, obs=None):
    """Bring up a fresh controller over a surviving substrate.

    ``full_scan=True`` is the pre-frontier baseline: scan every
    allocated AU's headers instead of just the frontier set.
    ``warm_cache_fraction`` models the secondary controller's
    asynchronously warmed cache (Section 4.3), discounting patch-load
    read time. ``obs`` threads one :class:`repro.obs.Observability`
    through failovers so a chaos run keeps a single trace. Returns
    (array, RecoveryReport).
    """
    array = cls(
        config=config, clock=clock, shelf=shelf, boot_region=boot_region,
        obs=obs,
    )
    obs = array.obs
    with obs.span("recovery", full_scan=full_scan) as span:
        report = _recover_body(array, boot_region, clock, full_scan,
                               warm_cache_fraction)
        # Degraded-mode intake: the array constructor already re-detected
        # substrate evidence (failed drives, torn NVRAM); the replay count
        # is only known now, so charge it as nvram-replay debt — it stays
        # outstanding until a checkpoint (or write-through drain) settles
        # it.
        if array.degrade.write_through:
            array.degrade.note_nvram_tear(report.raw_writes_replayed)
        span.set(
            lat=report.total_latency,
            boot=report.boot_latency,
            scan=report.scan_latency,
            nvram=report.nvram_latency,
            replay=report.replay_latency,
            facts=report.facts_recovered,
            log_records_read=report.log_records_read,
            raw_writes=report.raw_writes_replayed,
        )
    obs.metrics.histogram("recovery.downtime").record(report.total_latency)
    obs.metrics.counter("recovery.count").inc()
    return array, report


def _recover_body(array, boot_region, clock, full_scan, warm_cache_fraction):
    report = RecoveryReport()

    # 1. Boot region.
    checkpoint, boot_latency = boot_region.read_checkpoint()
    report.boot_latency = boot_latency
    array.allocator.restore_state(list(checkpoint["used_units"]))
    array.frontier.restore(
        list(checkpoint["frontier"]), list(checkpoint["speculative"])
    )
    # Drives that died before (or with) the controller are detected at
    # boot and excluded from allocation; drives replaced since the
    # checkpoint no longer exist under their old names at all.
    array.frontier.retain_drives(
        name for name, drive in array.drives.items() if not drive.failed
    )
    for drive_name, drive in array.drives.items():
        if drive.failed:
            array.allocator.drop_drive(drive_name)
            array.frontier.drop_drive(drive_name)
    array.segwriter.set_next_segment_id(checkpoint["next_segment_id"])
    array.pipeline.sequence.advance_past(checkpoint["next_seqno"] - 1)
    array.pipeline.restore_checkpoint_identities(checkpoint["patch_pointers"])
    array.medium_table.set_next_medium_id(checkpoint["next_medium_id"])
    array.pipeline.set_medium_id_hint(checkpoint["next_medium_id"])

    # 2. Patch pointers: bulk-load persisted index state. These records
    # were checkpointed *after* a successful drain, so an unreadable one
    # is genuine loss — detected and reported, never silently skipped.
    loaded = set()
    for relation_name, pointer in checkpoint["patch_pointers"]:
        facts = []
        for flat_placements, offset, length in pointer:
            descriptor = SegmentDescriptor(
                segment_id=-1, placements=_unflatten_placements(flat_placements)
            )
            try:
                blob, latency = array.segreader.read_log_record(
                    descriptor, (offset, length)
                )
            except UncorrectableError as exc:
                raise DataLossError(
                    "recovery cannot read a checkpointed %s patch: %s"
                    % (relation_name, exc)
                ) from exc
            report.patch_load_latency += latency * (1.0 - warm_cache_fraction)
            report.log_records_read += 1
            loaded.add((flat_placements, offset, length))
            _name, chunk, _end = decode_commit_record(blob)
            facts.extend(chunk)
        if facts:
            array.pipeline.adopt_persisted_patch(relation_name, Patch(facts),
                                                 pointer)
            report.patches_loaded += 1
            report.facts_recovered += len(facts)

    # 3. Header scan: frontier set (fast) or every allocated AU (baseline).
    scan_units = (
        list(checkpoint["frontier"])
        + list(checkpoint["speculative"])
        + [tuple(unit) for unit in checkpoint.get("open_units", ())]
    )
    if full_scan:
        seen = set(scan_units)
        for unit in checkpoint["used_units"]:
            if tuple(unit) not in seen:
                scan_units.append(tuple(unit))
    report.aus_scanned = len(scan_units)
    torn_log_records = 0
    headers, scan_latency = array.segreader.scan_headers(scan_units)
    report.scan_latency = scan_latency
    report.headers_found = len(headers)
    max_segment_id = checkpoint["next_segment_id"] - 1
    scanned = {}  # relation name -> (facts, pointer triples), scan order
    for header in headers:
        descriptor = header.descriptor()
        max_segment_id = max(max_segment_id, header.segment_id)
        for drive_name, au_index in descriptor.placements:
            array.frontier.remove_unit(drive_name, au_index)
            try:
                array.allocator.take_specific(drive_name, au_index)
            # lint: allow[no-bare-except] already marked used (pre-checkpoint segment)
            except AllocationError:
                pass
        flat = tuple(item for pair in descriptor.placements for item in pair)
        for locator in header.log_locators:
            triple = (flat, locator[0], locator[1])
            if triple in loaded:
                continue  # step 2 read it through a boot pointer
            try:
                blob, latency = array.segreader.read_log_record(
                    descriptor, locator
                )
            except UncorrectableError:
                # A torn segio: the crash interrupted its flush. NVRAM
                # is only ever trimmed *after* a flush completes, so the
                # facts in this record are still in NVRAM (step 4) —
                # skipping the torn copy loses nothing.
                torn_log_records += 1
                continue
            report.scan_latency += latency
            report.log_records_read += 1
            relation_name, chunk, _end = decode_commit_record(blob)
            facts, triples = scanned.setdefault(relation_name, ([], []))
            facts.extend(chunk)
            triples.append(triple)
    for relation_name, (facts, triples) in scanned.items():
        array.pipeline.adopt_persisted_patch(relation_name, Patch(facts),
                                             tuple(triples))
        report.facts_recovered += len(facts)
    for header in headers:  # after adoption: the rows may be in a patch
        if array.tables.segments.get((header.segment_id,)) is None:
            # Committed to NVRAM, as the segment writer does, so a
            # checkpoint before the next drain cannot drop the row.
            placements = tuple(map(tuple, header.descriptor().placements))
            array.pipeline.insert_meta_unchecked(
                T.SEGMENTS, [((header.segment_id,), (placements,))]
            )
    array.segwriter.set_next_segment_id(max_segment_id + 1)
    report.extra["torn_log_records"] = torn_log_records

    # 4. NVRAM: union metadata facts, queue raw writes for replay.
    batches, nvram_latency = array.pipeline.wal.recovery_scan()
    report.nvram_latency = nvram_latency
    raw_writes = []
    nvram_max_seq = 0
    for relation_name, facts in batches:
        for fact in facts:
            nvram_max_seq = max(nvram_max_seq, fact.seqno)
        if relation_name == T.RAW_WRITES:
            raw_writes.extend(facts)
            continue
        for fact in facts:
            array.tables[relation_name].insert_fact(fact)
            report.facts_recovered += 1

    # 5. Sequence numbers must outrun everything recovered before replay
    # — sequence numbers are never reused (Section 4.10) — and every
    # persisted elide record is re-applied so deletions stay deleted.
    array.pipeline.sequence.advance_past(
        max(array.tables.max_seqno(), nvram_max_seq)
    )
    report.extra["elides_replayed"] = array.pipeline.replay_elides()
    _restore_medium_counter(array)

    # 6. Replay raw writes, in NVRAM (= commit) order, under their seqnos.
    replay_start = clock.now
    for fact in raw_writes:
        medium_id, offset = fact.key
        array.datapath.process_write(medium_id, offset, fact.value[0],
                                     fact.seqno)
        report.raw_writes_replayed += 1
    report.replay_latency = clock.now - replay_start

    clock.advance(report.total_latency)
    return report


def _restore_medium_counter(array):
    """Medium ids must stay dense and monotone across recoveries."""
    medium_ids = array.medium_table.all_medium_ids()
    if medium_ids:
        array.medium_table.set_next_medium_id(medium_ids[-1] + 1)
        array.pipeline.set_medium_id_hint(medium_ids[-1] + 1)
