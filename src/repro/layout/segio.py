"""Open segios: the in-RAM stripe being filled (paper Figure 3).

Compressed user data accumulates from the front of the segio's payload
and log records (serialized tuples) from the back. When the two regions
meet — or on demand — the segio is finalized: the gap is zero-filled,
the payload is split into data shards, parity is computed, and each
shard is prefixed with the replicated header.
"""

import numpy as np

from repro.layout.segment import SegioHeader


class OpenSegio:
    """One segio being filled in controller RAM."""

    def __init__(self, geometry, descriptor, segio_index, buffer_pool=None):
        self.geometry = geometry
        self.descriptor = descriptor
        self.segio_index = segio_index
        #: Payload accumulation buffer, recycled through the writer's
        #: buffer pool when one is wired (acquire returns it zeroed, so
        #: the gap/zero-fill contract holds either way).
        self._buffer_pool = buffer_pool
        if buffer_pool is not None:
            self._payload = buffer_pool.acquire(geometry.payload_per_segio)
        else:
            self._payload = bytearray(geometry.payload_per_segio)
        self._front = 0  # next data byte (from the front)
        self._back = geometry.payload_per_segio  # log region grows downward
        self._log_locators = []
        # Locators live in the fixed-size header; cap them so the
        # encoded header always fits its reserve (~12 B per locator
        # after ~256 B of fixed fields).
        self._max_log_records = max(4, (geometry.wu_header_size - 256) // 12)
        self._seq_min = None
        self._seq_max = None
        self._max_record_id = -1
        self.finalized = False

    @property
    def data_bytes(self):
        """User-data bytes accumulated from the front."""
        return self._front

    @property
    def log_bytes(self):
        """Log-record bytes accumulated from the back."""
        return self.geometry.payload_per_segio - self._back

    @property
    def free_bytes(self):
        """Gap remaining between the data and log regions."""
        return self._back - self._front

    def payload_base(self):
        """Segment payload offset of this segio's first byte."""
        return self.segio_index * self.geometry.payload_per_segio

    def append_data(self, blob):
        """Add user data at the front; returns the segment payload offset.

        Returns None when the blob does not fit (caller flushes and
        retries in the next segio).
        """
        self._check_open()
        if len(blob) > self.free_bytes:
            return None
        offset = self._front
        self._payload[offset : offset + len(blob)] = blob
        self._front += len(blob)
        return self.payload_base() + offset

    def append_log_record(self, blob, seq_min=None, seq_max=None, record_id=None):
        """Add a log record at the back; returns its payload locator.

        Returns None when the record does not fit. ``seq_min``/``seq_max``
        and ``record_id`` feed the header so recovery can scan headers
        instead of record bodies.
        """
        self._check_open()
        if len(blob) > self.free_bytes:
            return None
        if len(self._log_locators) >= self._max_log_records:
            return None
        self._back -= len(blob)
        self._payload[self._back : self._back + len(blob)] = blob
        locator = (self.payload_base() + self._back, len(blob))
        self._log_locators.append(locator)
        if seq_min is not None:
            self._seq_min = seq_min if self._seq_min is None else min(self._seq_min, seq_min)
        if seq_max is not None:
            self._seq_max = seq_max if self._seq_max is None else max(self._seq_max, seq_max)
        if record_id is not None:
            self._max_record_id = max(self._max_record_id, record_id)
        return locator

    @property
    def is_empty(self):
        return self._front == 0 and not self._log_locators

    def read_payload(self, payload_offset, length):
        """Serve a read from the in-RAM buffer (data not yet flushed).

        ``payload_offset`` is segment-relative; returns None when the
        range is not inside this segio.
        """
        base = self.payload_base()
        within = payload_offset - base
        if self._payload is None:
            return None  # buffer already recycled; data is on the drives
        if within < 0 or within + length > self.geometry.payload_per_segio:
            return None
        # One copy, off a view: the caller must own its bytes, because
        # this buffer is recycled after the flush.
        return bytes(memoryview(self._payload)[within : within + length])

    def _check_open(self):
        if self.finalized:
            raise RuntimeError("segio already finalized")

    def release_buffer(self):
        """Return the payload buffer to the pool after a flush.

        Only legal once finalized: the write units hold their own
        copies by then, so nothing references the accumulation buffer.
        The slot is cleared so a stale read fails closed (None), never
        serves recycled bytes.
        """
        if not self.finalized or self._payload is None:
            return
        buffer, self._payload = self._payload, None
        if self._buffer_pool is not None:
            self._buffer_pool.release(buffer)

    def finalize(self, codec):
        """Seal the segio; returns the write units to put on each drive.

        ``codec`` is the Reed–Solomon codec for this geometry. Returns a
        list of ``total_shards`` byte strings, each exactly one write
        unit (replicated header + shard body), data shards first.
        """
        self._check_open()
        self.finalized = True
        # The payload is an exact multiple of shard_body, so the k data
        # shards are a zero-copy 2-D view of the accumulation buffer and
        # parity comes back as the codec's (m, L) buffer. Each write unit
        # is then materialised exactly once, header and body joined
        # straight off those views — and it must be: the unit owns its
        # bytes because both buffers are reused right after the flush.
        data_shards = self.geometry.data_shards
        payload_view = np.frombuffer(self._payload, dtype=np.uint8)
        matrix = payload_view.reshape(data_shards, payload_view.size // data_shards)
        parity = codec.encode_stripes(matrix)
        all_shards = [matrix[index] for index in range(data_shards)]
        all_shards.extend(parity[index] for index in range(len(parity)))
        headers = SegioHeader(
            segment_id=self.descriptor.segment_id,
            segio_index=self.segio_index,
            shard_index=0,
            placements=self.descriptor.placements,
            data_length=self._front,
            log_locators=tuple(self._log_locators),
            seq_min=self._seq_min if self._seq_min is not None else 0,
            seq_max=self._seq_max if self._seq_max is not None else -1,
            max_record_id=self._max_record_id,
        ).encode_replicas(self.geometry.wu_header_size, len(all_shards))
        return [
            b"".join((header, body)) for header, body in zip(headers, all_shards)
        ]
