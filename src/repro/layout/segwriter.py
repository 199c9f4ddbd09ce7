"""The segment writer (paper Figure 4, right half).

Joins the two event streams of the commit path — sequence numbers
persisted to NVRAM, and index-ordered patches — into segios: user data
accumulates from the front, log records from the back, and full segios
are flushed to the drives as parallel one-write-unit programs. After a
flush, the writer reports the newest NVRAM record id it persisted so
the WAL can trim.

Write-ahead ordering is enforced structurally: log records enter a
segio only through :meth:`append_log_record`, whose ``record_id``
argument is the NVRAM record the facts came from — they are in NVRAM
before they can reach a segment.
"""

import itertools

from repro.errors import AllocationError, OutOfSpaceError
from repro.layout.segio import OpenSegio
from repro.layout.segment import SegmentDescriptor
from repro.obs.trace import NULL_OBS


class SegmentWriter:
    """Accumulates data and log records into segios and flushes them."""

    def __init__(
        self,
        geometry,
        codec,
        drives,
        frontier,
        clock,
        checkpointer=None,
        on_segio_flushed=None,
        on_segment_opened=None,
        max_concurrent_writes=None,
    ):
        self.geometry = geometry
        self.codec = codec
        self.drives = drives  # name -> SimulatedSSD
        self.frontier = frontier
        self.clock = clock
        self.checkpointer = checkpointer
        self.on_segio_flushed = on_segio_flushed
        self.on_segment_opened = on_segment_opened
        #: Section 4.4: avoid writing to more than two SSDs per ECC
        #: group at once, so reads can always reconstruct around busy
        #: drives. None = program every shard in parallel.
        self.max_concurrent_writes = max_concurrent_writes
        #: Fault-injection hooks (see :mod:`repro.faults`): crashpoint
        #: router, and a flush interceptor that may drop shard programs
        #: (torn flushes).
        self.crashpoints = None
        self.flush_interceptor = None
        #: Observability handle (see :mod:`repro.obs`); wired by the
        #: array. Standalone writers keep the always-off NULL_OBS.
        self.obs = NULL_OBS
        #: Optional :class:`repro.degrade.DegradeEngine`; wired by the
        #: array. Flushes that skip failed drives charge the stripe to
        #: the repair-debt ledger so rebuild knows what it owes.
        self.degrade = None
        #: :class:`repro.layout.pools.BufferPool` recycling segio
        #: payloads; wired by the array, None-safe for standalone
        #: writers.
        self.buffer_pool = None
        self._segment_ids = itertools.count(1)
        self._descriptor = None
        self._segio = None
        self._next_segio_index = 0
        self.segios_flushed = 0
        self.segments_opened = 0
        self.data_bytes_written = 0
        self.log_bytes_written = 0
        self.flush_bytes_written = 0
        #: Payload bytes flushes programmed that no blob or log record
        #: used: the padding of segios flushed before they filled.
        self.padding_bytes_written = 0

    def set_next_segment_id(self, next_id):
        """Continue segment numbering after recovery."""
        self._segment_ids = itertools.count(next_id)

    @property
    def current_descriptor(self):
        return self._descriptor

    @property
    def current_segio(self):
        return self._segio

    def _take_group(self):
        try:
            return self.frontier.take_group(self.geometry.total_shards)
        except OutOfSpaceError:
            if self.checkpointer is None:
                raise
            self.checkpointer()
            return self.frontier.take_group(self.geometry.total_shards)

    def _open_segment(self):
        placements = tuple(self._take_group())
        segment_id = next(self._segment_ids)
        self._descriptor = SegmentDescriptor(
            segment_id=segment_id, placements=placements
        )
        self._next_segio_index = 0
        self.segments_opened += 1
        if self.on_segment_opened is not None:
            self.on_segment_opened(self._descriptor)

    def _open_segio(self):
        if self._descriptor is None or (
            self._next_segio_index >= self.geometry.segios_per_segment
        ):
            self._open_segment()
        self._segio = OpenSegio(
            self.geometry, self._descriptor, self._next_segio_index,
            buffer_pool=self.buffer_pool,
        )
        self._next_segio_index += 1

    def _ensure_segio(self):
        if self._segio is None or self._segio.finalized:
            self._open_segio()

    def append_data(self, blob):
        """Write user data; returns (descriptor, payload_offset, latency).

        Latency is non-zero only when the append forces a segio flush —
        the data path itself commits via NVRAM, so this cost is
        background, not client-visible.
        """
        if len(blob) > self.geometry.payload_per_segio:
            raise ValueError(
                "blob of %d bytes exceeds segio payload %d"
                % (len(blob), self.geometry.payload_per_segio)
            )
        self._ensure_segio()
        latency = 0.0
        offset = self._segio.append_data(blob)
        if offset is None:
            latency = self.flush()
            self._ensure_segio()
            offset = self._segio.append_data(blob)
            if offset is None:
                raise AllocationError("fresh segio rejected a valid blob")
        self.data_bytes_written += len(blob)
        return self._segio.descriptor, offset, latency

    def append_log_record(self, blob, seq_min=None, seq_max=None, record_id=None):
        """Write a log record; returns (descriptor, locator, latency)."""
        if len(blob) > self.geometry.payload_per_segio:
            raise ValueError(
                "log record of %d bytes exceeds segio payload %d"
                % (len(blob), self.geometry.payload_per_segio)
            )
        self._ensure_segio()
        latency = 0.0
        locator = self._segio.append_log_record(blob, seq_min, seq_max, record_id)
        if locator is None:
            latency = self.flush()
            self._ensure_segio()
            locator = self._segio.append_log_record(blob, seq_min, seq_max, record_id)
            if locator is None:
                raise AllocationError("fresh segio rejected a valid log record")
        self.log_bytes_written += len(blob)
        return self._segio.descriptor, locator, latency

    def retire_current_segment(self):
        """Flush and abandon the open segment (GC wants to evacuate it).

        The next append opens a fresh segment; unused segios in the
        retired one simply stay unwritten. Returns the flush latency.
        """
        latency = self.flush()
        self._descriptor = None
        self._segio = None
        self._next_segio_index = 0
        return latency

    def read_unflushed(self, segment_id, payload_offset, length):
        """Serve reads of data still in the open segio's RAM buffer.

        Returns bytes, or None when the range is not in the open segio
        (then it is on the drives and the segment reader serves it).
        """
        if (
            self._segio is None
            or self._segio.finalized
            or self._descriptor is None
            or self._descriptor.segment_id != segment_id
        ):
            return None
        return self._segio.read_payload(payload_offset, length)

    def flush(self):
        """Finalize and program the open segio; returns flush latency.

        The ``total_shards`` write units go to distinct drives in
        parallel, so the charged latency is the slowest program.
        """
        if self._segio is None or self._segio.finalized or self._segio.is_empty:
            return 0.0
        segio = self._segio
        padding = segio.free_bytes
        cp = self.crashpoints
        obs = self.obs
        with obs.span("segio.flush", segment=segio.descriptor.segment_id,
                      segio=segio.segio_index) as flush_span:
            if cp is not None:
                cp.hit("segwriter.pre-flush", descriptor=segio.descriptor)
            with obs.span("rs-encode") as span:
                write_units = segio.finalize(self.codec)
                span.set(shards=len(write_units))
            descriptor = segio.descriptor
            pending = []
            skipped_shards = 0
            for shard_index, unit in enumerate(write_units):
                drive_name, au_index = descriptor.placements[shard_index]
                drive = self.drives.get(drive_name)
                if drive is None or drive.failed:
                    skipped_shards += 1
                    continue  # degraded write: parity still protects the data
                device_offset = self.geometry.device_offset(
                    au_index * self.geometry.au_size, segio.segio_index, 0
                )
                pending.append((drive, device_offset, unit))
            if self.flush_interceptor is not None:
                # Fault injection: a torn flush persists only a subset of
                # the shard programs (the dropped units read back torn).
                pending = self.flush_interceptor(
                    descriptor, segio.segio_index, pending
                )
            wave_size = self.max_concurrent_writes or len(pending) or 1
            now = self.clock.now
            elapsed = 0.0
            for wave_start in range(0, len(pending), wave_size):
                if cp is not None and wave_start:
                    # A crash here leaves earlier waves on media and later
                    # ones unwritten — the torn-stripe recovery scenario.
                    # The remaining fan-out travels with the hit so the
                    # injector can mark those units torn (modelling the
                    # checksums that make a half-written stripe detectable).
                    cp.hit(
                        "segwriter.mid-flush",
                        descriptor=descriptor,
                        remaining=pending[wave_start:],
                    )
                wave = pending[wave_start : wave_start + wave_size]
                wave_latency = 0.0
                for drive, device_offset, unit in wave:
                    # Later waves start after earlier ones complete, so no
                    # more than ``wave_size`` drives are programming at once
                    # (Section 4.4) and reads can reconstruct around them.
                    latency = drive.write(device_offset, unit, start_at=now + elapsed)
                    wave_latency = max(wave_latency, latency - elapsed)
                    self.flush_bytes_written += len(unit)
                elapsed += wave_latency
            if cp is not None:
                cp.hit("segwriter.post-flush", descriptor=descriptor)
            fill = 1.0 - padding / self.geometry.payload_per_segio
            flush_span.set(lat=elapsed, shards=len(pending), fill=fill)
        obs.metrics.histogram("segio.flush.latency").record(elapsed)
        if skipped_shards and self.degrade is not None:
            # Written at reduced stripe width: count the repair debt so
            # rebuild burns it down instead of rediscovering it.
            self.degrade.note_degraded_stripe(descriptor.segment_id)
        self.segios_flushed += 1
        self.padding_bytes_written += padding
        if self.on_segio_flushed is not None:
            self.on_segio_flushed(descriptor, segio)
        # The write units hold their own copies now; recycle the
        # accumulation buffer. (A crash above leaks it instead — the
        # pool must never hand out a buffer a torn flush still holds.)
        segio.release_buffer()
        self._segio = None
        return elapsed
