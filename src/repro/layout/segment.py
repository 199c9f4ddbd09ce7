"""Segment geometry, descriptors, and write-unit headers.

A segment is one allocation unit from each of ``k + m`` drives (the
paper's current systems use 8 MiB AUs, 1 MiB write units, and 7+2
Reed–Solomon). Each write unit begins with a small self-describing
header replicated across every shard of its segio; the body bytes of
the ``k`` data shards form the segio's payload and the ``m`` parity
shards protect them. Headers are replicated rather than parity-encoded
so any surviving shard identifies the segment during recovery scans.

Payload addressing: a byte of segment payload lives at
``(segio s, shard j, offset w)`` with
``payload_offset = (s * k + j) * shard_body + w``.
"""

from dataclasses import dataclass

from repro.errors import EncodingError
from repro.units import KIB, MIB
from repro.wire import (decode_value, encode_field_into, encode_value,
                        encode_varint)

#: Magic prefix identifying a valid write-unit header.
WU_MAGIC = b"PSEG"


@dataclass(frozen=True)
class SegmentGeometry:
    """Sizes and shard counts for segments on one array."""

    data_shards: int = 7
    parity_shards: int = 2
    au_size: int = 8 * MIB
    write_unit: int = 1 * MIB
    wu_header_size: int = 4 * KIB

    def __post_init__(self):
        if self.data_shards < 1 or self.parity_shards < 1:
            raise ValueError("need at least one data and one parity shard")
        if self.au_size % self.write_unit:
            raise ValueError("AU size must be a multiple of the write unit")
        if self.wu_header_size >= self.write_unit:
            raise ValueError("header must be smaller than the write unit")

    @property
    def total_shards(self):
        return self.data_shards + self.parity_shards

    @property
    def shard_body(self):
        """Payload bytes carried by one write unit after its header."""
        return self.write_unit - self.wu_header_size

    @property
    def segios_per_segment(self):
        """Write-unit stripes stacked in one allocation unit."""
        return self.au_size // self.write_unit

    @property
    def payload_per_segio(self):
        """Payload bytes in one segio (data region + log region)."""
        return self.data_shards * self.shard_body

    @property
    def payload_per_segment(self):
        """Payload capacity of a whole segment."""
        return self.segios_per_segment * self.payload_per_segio

    def locate(self, payload_offset):
        """Map a payload offset to (segio, shard, offset within body)."""
        if payload_offset < 0 or payload_offset >= self.payload_per_segment:
            raise ValueError("payload offset %d out of range" % payload_offset)
        segio, within_segio = divmod(payload_offset, self.payload_per_segio)
        shard, within_body = divmod(within_segio, self.shard_body)
        return segio, shard, within_body

    def device_offset(self, au_start, segio, within_wu):
        """Device byte address of a position inside one write unit.

        ``within_wu`` includes the header (0 = header start); add
        ``wu_header_size`` for body positions.
        """
        return au_start + segio * self.write_unit + within_wu

    def split_payload_range(self, payload_offset, length):
        """Break a payload range into per-(segio, shard) body chunks.

        Yields (segio, shard, within_body, chunk_length) covering the
        range in order.
        """
        remaining = length
        cursor = payload_offset
        while remaining > 0:
            segio, shard, within_body = self.locate(cursor)
            chunk = min(remaining, self.shard_body - within_body)
            yield segio, shard, within_body, chunk
            cursor += chunk
            remaining -= chunk


@dataclass(frozen=True)
class SegmentDescriptor:
    """Where one segment physically lives.

    ``placements`` is a tuple of (drive_name, au_index), one per shard,
    data shards first. AU index is in units of the geometry's AU size
    on that drive.
    """

    segment_id: int
    placements: tuple

    def au_start(self, shard, geometry):
        """Device byte offset where this shard's AU begins."""
        _drive, au_index = self.placements[shard]
        return au_index * geometry.au_size

    def drive_names(self):
        return tuple(drive for drive, _au in self.placements)


@dataclass(frozen=True)
class SegioHeader:
    """Self-describing header replicated at the front of each write unit.

    ``log_locators`` is a tuple of (payload_offset, length) pairs for
    the log records this segio carries; ``seq_min``/``seq_max`` bound
    the sequence numbers inside (the recovery scan reads only headers
    to decide what to replay); ``max_record_id`` is the newest NVRAM
    commit record folded into this segio, used to trim the WAL.
    """

    segment_id: int
    segio_index: int
    shard_index: int
    placements: tuple
    data_length: int
    log_locators: tuple
    seq_min: int
    seq_max: int
    max_record_id: int

    def _fields(self):
        placements_flat = tuple(
            item for drive, au in self.placements for item in (drive, au)
        )
        locators_flat = tuple(
            item for offset, length in self.log_locators for item in (offset, length)
        )
        return (
            self.segment_id,
            self.segio_index,
            self.shard_index,
            placements_flat,
            self.data_length,
            locators_flat,
            self.seq_min,
            self.seq_max,
            self.max_record_id,
        )

    @staticmethod
    def _frame(body, header_size):
        blob = WU_MAGIC + len(body).to_bytes(4, "big") + body
        if len(blob) > header_size:
            raise EncodingError(
                "header needs %d bytes, only %d reserved" % (len(blob), header_size)
            )
        return blob + b"\x00" * (header_size - len(blob))

    def encode(self, header_size):
        """Serialize, padded to exactly ``header_size`` bytes."""
        return self._frame(encode_value(self._fields()), header_size)

    def encode_replicas(self, header_size, shard_count):
        """The header of each of a segio's ``shard_count`` shards.

        Entry ``i`` equals ``replace(self, shard_index=i).encode(header_size)``.
        Only ``shard_index`` differs between the replicas, so the fields
        around it are encoded once, not once per shard.
        """
        fields = self._fields()
        head = bytearray()
        encode_varint(len(fields), head)
        for value in fields[:2]:
            encode_field_into(value, head)
        tail = bytearray()
        for value in fields[3:]:
            encode_field_into(value, tail)
        replicas = []
        for shard_index in range(shard_count):
            body = bytearray(head)
            encode_field_into(shard_index, body)
            body += tail
            replicas.append(self._frame(body, header_size))
        return replicas

    @classmethod
    def decode(cls, data):
        """Parse a header; returns None if the bytes are not a header."""
        if len(data) < 8 or data[:4] != WU_MAGIC:
            return None
        body_length = int.from_bytes(data[4:8], "big")
        if 8 + body_length > len(data):
            return None
        try:
            fields, _end = decode_value(data[8 : 8 + body_length])
        except EncodingError:
            return None
        if len(fields) != 9:
            return None
        (
            segment_id,
            segio_index,
            shard_index,
            placements_flat,
            data_length,
            locators_flat,
            seq_min,
            seq_max,
            max_record_id,
        ) = fields
        placements = tuple(
            (placements_flat[i], placements_flat[i + 1])
            for i in range(0, len(placements_flat), 2)
        )
        locators = tuple(
            (locators_flat[i], locators_flat[i + 1])
            for i in range(0, len(locators_flat), 2)
        )
        return cls(
            segment_id=segment_id,
            segio_index=segio_index,
            shard_index=shard_index,
            placements=placements,
            data_length=data_length,
            log_locators=locators,
            seq_min=seq_min,
            seq_max=seq_max,
            max_record_id=max_record_id,
        )

    def descriptor(self):
        """The segment descriptor recoverable from this header."""
        return SegmentDescriptor(segment_id=self.segment_id, placements=self.placements)
