"""Deduplication (paper Section 4.7).

Purity deduplicates at 512 B granularity but records only every eighth
block's hash, using hashes no larger than 64 bits; all blocks are
*looked up*, and a hash hit is confirmed by a byte-level comparison, so
short hashes cost only an extra block compare and never correctness. A
confirmed duplicate becomes an *anchor* from which the run is extended
in both directions, detecting most duplicate sequences of at least
8 blocks (4 KiB) regardless of alignment.
"""

from repro.dedup.hashing import (
    HASH_BITS,
    sector_hash,
    sector_hash_vector,
    sector_hashes,
)
from repro.dedup.index import DedupIndex, DedupLocation
from repro.dedup.inline import DedupMatch, InlineDeduper

__all__ = [
    "HASH_BITS",
    "sector_hash",
    "sector_hash_vector",
    "sector_hashes",
    "DedupIndex",
    "DedupLocation",
    "DedupMatch",
    "InlineDeduper",
]
