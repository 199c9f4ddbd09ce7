"""Sector hashing for deduplication.

Hashes are 64 bits (the paper uses "hashes no larger than 64 bits") and
every index hit is confirmed by a byte-level comparison before a
duplicate mapping is recorded, so a collision costs one sector compare,
never correctness. The hash therefore only has to be fast and well
spread, not cryptographic.

One numpy kernel hashes every sector of a buffer in a single pass:

1. view the buffer as an ``(n, 64)`` array of little-endian 64-bit
   words, one row per 512 B sector (a view, not a copy);
2. pre-mix each word: multiply by an odd constant, then xor in its own
   high half shifted down (``x ^= x >> 32``);
3. take each row's dot product with 64 fixed odd multipliers, mod 2^64.

The pre-mix is what makes the hash safe to use. Without it the hash is
linear mod 2^64: flipping bit ``b`` of word ``i`` moves it by
``multiplier[i] << b``, which for the top bit is 2^63 whatever the odd
multiplier, so any two sectors that differ only in the top bits of an
even number of words collide. The pre-mix is a bijection on words, so
two sectors that differ in one word never collide. The multiply carries
each bit upward and the xorshift carries the high half back down, so
the top-bit pairs a bare dot sends to one value spread over 2^32.

The multipliers come from splitmix64 in pure Python, so the hash is the
same on every platform and under every ``PYTHONHASHSEED``. No ndarray
view of the caller's buffer outlives a call: a live buffer export would
make a caller's reused ``bytearray`` impossible to resize. The sampling
rate (which sectors get *recorded*, not which get looked up) lives in
``ArrayConfig.dedup_sample_every``; the datapath records the sampled
rows out of the one full pass it deduplicated a chunk with.
"""

import numpy as np

from repro.units import SECTOR

#: Bits kept from each sector digest.
HASH_BITS = 64
#: Bytes per sector in a :func:`sector_hash_vector`.
HASH_BYTES = HASH_BITS // 8

_MASK = (1 << HASH_BITS) - 1
_WORD = np.dtype("<u8")
_WORDS_PER_SECTOR = SECTOR // _WORD.itemsize
_PREMIX = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(32)


def _splitmix64(seed, count):
    """``count`` successive splitmix64 outputs from ``seed``."""
    out = []
    state = seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


#: One odd multiplier per word of a sector.
_MULTIPLIERS = np.array(
    [value | 1 for value in _splitmix64(2015, _WORDS_PER_SECTOR)],
    dtype=np.uint64,
)


def _hash_rows(data):
    """Hashes of every sector of ``data``, as a uint64 ndarray.

    The only view of ``data`` is ``words``, a local: it is gone when
    this returns, and when it raises (a failed reshape drops its
    operand before the error propagates).
    """
    try:
        words = np.frombuffer(data, dtype=_WORD).reshape(-1, _WORDS_PER_SECTOR)
    except ValueError:
        raise ValueError("data length %d is not a sector multiple"
                         % memoryview(data).nbytes) from None
    mixed = words * _PREMIX
    del words
    mixed ^= mixed >> _SHIFT
    return mixed.dot(_MULTIPLIERS)


def sector_hash(sector_bytes):
    """64-bit hash of one 512 B sector (accepts any bytes-like)."""
    hashes = sector_hashes(sector_bytes)
    if len(hashes) != 1:
        raise ValueError("a sector is %d bytes, got %d sectors"
                         % (SECTOR, len(hashes)))
    return hashes[0]


def sector_hashes(data):
    """Hashes of each 512 B sector of ``data`` (length must divide evenly).

    ``data`` may be bytes, bytearray, or memoryview, at any alignment.
    """
    return _hash_rows(data).tolist()


def sector_hash_vector(data):
    """:func:`sector_hashes` packed as ``bytes``, :data:`HASH_BYTES` per
    sector: what a stored cblock keeps of its hashes."""
    return _hash_rows(data).tobytes()


def hash_values(vector):
    """The hashes packed in a :func:`sector_hash_vector`, as ints."""
    return memoryview(vector).cast("Q").tolist()
