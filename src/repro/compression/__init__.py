"""Compression and the cblock on-disk format (paper Section 4.6).

Mediums store application data as *cblocks*: compressed blocks sized to
match application writes, from one 512 B sector up to 32 KiB. Because
the layout is log-structured, cblocks pack tightly with no alignment
padding — the compression win the paper contrasts with update-in-place
systems.
"""

from repro.compression.engine import (
    CompressionStats,
    Compressor,
    NullCompressor,
    ZlibCompressor,
    best_effort_compress,
    decompress_payload,
)
from repro.compression.cblock import (
    build_cblock,
    parse_cblock,
    split_write,
)

__all__ = [
    "Compressor",
    "NullCompressor",
    "ZlibCompressor",
    "CompressionStats",
    "best_effort_compress",
    "decompress_payload",
    "build_cblock",
    "parse_cblock",
    "split_write",
]
