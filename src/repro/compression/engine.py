"""Compressors and the stored-vs-compressed decision.

Purity compresses on the fly (Section 3.1); a block that does not
shrink is stored raw, so compression never *costs* capacity. Codecs are
identified by small integers recorded in each cblock header so the read
path can decompress without any per-volume configuration.
"""

import zlib

from dataclasses import dataclass, field

from repro.errors import EncodingError

#: Codec ids recorded in cblock headers.
CODEC_STORED = 0
CODEC_ZLIB = 1


class Compressor:
    """Interface: compress/decompress plus the codec id stored on disk."""

    codec_id = None

    def compress(self, data, job=None):
        raise NotImplementedError

    def decompress(self, payload, job=None):
        raise NotImplementedError


class NullCompressor(Compressor):
    """Identity codec: stores bytes as-is."""

    codec_id = CODEC_STORED

    def compress(self, data, job=None):
        return bytes(data)

    def decompress(self, payload, job=None):
        return bytes(payload)


class ZlibCompressor(Compressor):
    """DEFLATE via zlib; level 1 approximates a fast inline codec."""

    codec_id = CODEC_ZLIB

    def __init__(self, level=1):
        if not 0 <= level <= 9:
            raise ValueError("zlib level must be 0-9, got %r" % level)
        self.level = level

    def compress(self, data, job=None):
        """``zlib.compress(data)``. ``job`` is a helper-thread job for
        these same bytes (see :mod:`repro.compression.helper`): its
        answer if the helper took it, else the call runs here."""
        if job is not None and not job.claim():
            return job.result()
        # zlib accepts any buffer, so memoryview chunks compress without
        # an intermediate bytes copy.
        return zlib.compress(data, self.level)

    def decompress(self, payload, job=None):
        """``zlib.decompress(payload)``, or ``job``'s answer, as in
        :meth:`compress`."""
        if job is not None and not job.claim():
            return job.result()
        return zlib.decompress(payload)


_DECOMPRESSORS = {
    CODEC_STORED: NullCompressor(),
    CODEC_ZLIB: ZlibCompressor(),
}


def best_effort_compress(data, compressor, job=None):
    """Compress if it helps; returns (codec_id, payload).

    Falls back to stored bytes when the codec fails to shrink the data,
    so incompressible writes never inflate. ``job`` is passed to the
    codec (see :meth:`ZlibCompressor.compress`).
    """
    compressed = compressor.compress(data, job)
    if len(compressed) < len(data):
        return compressor.codec_id, compressed
    return CODEC_STORED, bytes(data)


def decompress_payload(codec_id, payload, job=None):
    """Invert :func:`best_effort_compress` using the recorded codec id."""
    codec = _DECOMPRESSORS.get(codec_id)
    if codec is None:
        raise EncodingError("unknown codec id %d" % codec_id)
    return codec.decompress(payload, job)


@dataclass
class CompressionStats:
    """Running totals for data-reduction reporting."""

    logical_bytes: int = 0
    stored_bytes: int = 0
    cblocks: int = 0
    incompressible_cblocks: int = 0
    extra: dict = field(default_factory=dict)

    def note(self, logical_length, stored_length, codec_id):
        """Record one cblock's reduction."""
        self.logical_bytes += logical_length
        self.stored_bytes += stored_length
        self.cblocks += 1
        if codec_id == CODEC_STORED:
            self.incompressible_cblocks += 1

    @property
    def ratio(self):
        """Compression ratio (logical / stored); 1.0 when empty."""
        if not self.stored_bytes:
            return 1.0
        return self.logical_bytes / self.stored_bytes
