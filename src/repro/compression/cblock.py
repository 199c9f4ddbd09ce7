"""The cblock format and write-size inference.

A cblock is a self-describing compressed block: a small header (codec
id, logical length, payload length) followed by the compressed payload.
Cblocks are sized to match application writes up to 32 KiB
(Section 4.6) — Purity infers transfer sizes from the I/O stream
instead of exposing block-size tuning knobs, because reads almost
always use the same alignment and size as the write that created the
data.
"""

import zlib

from repro.compression.engine import best_effort_compress, decompress_payload
from repro.errors import EncodingError
from repro.units import MAX_CBLOCK, SECTOR
from repro.wire import TAG_INT, decode_varint, encode_value


def split_write(offset, data, max_cblock=MAX_CBLOCK):
    """Break one application write into cblock-sized extents.

    Yields (offset, chunk) pairs; chunks are zero-copy memoryviews of
    ``data``, so splitting never duplicates the incoming write. Writes
    must be sector-aligned with sector-multiple lengths (the 512 B
    minimum block size existing storage protocols dictate). Chunks
    match the write size up to ``max_cblock``, so a 55 KiB write
    becomes a 32 KiB and a 23 KiB cblock rather than many fixed-size
    pages.
    """
    if offset % SECTOR:
        raise ValueError("write offset %d is not sector-aligned" % offset)
    if len(data) % SECTOR:
        raise ValueError("write length %d is not a sector multiple" % len(data))
    if max_cblock % SECTOR or max_cblock <= 0:
        raise ValueError("max_cblock must be a positive sector multiple")
    view = memoryview(data)
    cursor = 0
    while cursor < len(view):
        chunk = view[cursor : cursor + max_cblock]
        yield offset + cursor, chunk
        cursor += len(chunk)


def build_cblock(data, compressor, job=None):
    """Compress ``data`` into a self-describing cblock blob.

    Returns (blob, codec_id). The blob is what lands in a segment's
    data region. ``job``, if given, is a helper-thread job that
    compresses exactly ``data`` (see :mod:`repro.compression.helper`).
    """
    if not data:
        raise ValueError("cannot build an empty cblock")
    codec_id, payload = best_effort_compress(data, compressor, job)
    header = encode_value((codec_id, len(data), len(payload)))
    return header + payload, codec_id


def unpack_cblock(blob):
    """(codec id, logical length, payload view) of a cblock blob.

    The header is what :func:`repro.wire.encode_value` makes of three
    non-negative ints: a varint count of 3, then three int-tagged
    zigzag varints. Any other count, tag or sign is corrupt; so is a
    payload shorter than the header declares.
    """
    try:
        count, offset = decode_varint(blob, 0)
        if count != 3:
            raise EncodingError("%d header fields, not 3" % count)
        fields = []
        for _ in range(3):
            if offset >= len(blob) or blob[offset] != TAG_INT:
                raise EncodingError("header field is not an int")
            raw, offset = decode_varint(blob, offset + 1)
            if raw & 1:
                raise EncodingError("negative header field")
            fields.append(raw >> 1)
    except EncodingError as error:
        raise EncodingError("corrupt cblock header: %s" % error) from error
    codec_id, logical_length, payload_length = fields
    payload = memoryview(blob)[offset : offset + payload_length]
    if len(payload) != payload_length:
        raise EncodingError(
            "cblock truncated: header claims %d payload bytes, have %d"
            % (payload_length, len(payload))
        )
    return codec_id, logical_length, payload


def parse_cblock(blob, job=None, header=None):
    """Decompress a cblock blob back to its logical bytes.

    ``job``, if given, is a helper-thread job that inflates this blob's
    payload (see :mod:`repro.compression.helper`). ``header``, if given,
    is the blob's :func:`unpack_cblock`, already parsed by the caller.
    """
    codec_id, logical_length, payload = header or unpack_cblock(blob)
    try:
        data = decompress_payload(codec_id, payload, job)
    except zlib.error as error:
        raise EncodingError("corrupt cblock payload: %s" % error) from error
    if len(data) != logical_length:
        raise EncodingError(
            "cblock decompressed to %d bytes, header claims %d"
            % (len(data), logical_length)
        )
    return data
