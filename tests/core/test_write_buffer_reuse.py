"""The caller owns its write buffer again the moment ``write`` returns.

``DataPath._store_unique`` used to warm the cblock cache with a
zero-copy view of whatever the caller passed to ``write``. A client
that reused its I/O buffer (the common pattern) then changed the
*cached* cblock underneath the array: reads served the mutated bytes,
and — durably — the next write of that buffer deduplicated against
itself, so inline dedup "verified" a run over a sector that had in fact
changed and mapped it to the old data. The cache now keeps ``bytes`` of
its own. NVRAM and crash → recover were never affected, only the cache.
"""

import pytest

from repro.sim.rand import RandomStream
from repro.units import KIB, SECTOR

from tests.conftest import make_engine

LENGTH = 32 * KIB
SECOND_OFFSET = 64 * KIB

#: How the client hands its (mutable) I/O buffer to ``write``.
HANDOVER = {
    "bytes": bytes,
    "bytearray": lambda buffer: buffer,
    "memoryview": memoryview,
}


def make_array_and_buffer(seed):
    array = make_engine(seed=seed, volume="v", size=128 * KIB)
    return array, bytearray(RandomStream(seed).randbytes(LENGTH))


@pytest.mark.parametrize("kind", sorted(HANDOVER))
def test_read_after_the_caller_mutates_its_buffer(kind):
    array, buffer = make_array_and_buffer(seed=21)
    array.write("v", 0, HANDOVER[kind](buffer))
    written = bytes(buffer)
    buffer[SECTOR : 2 * SECTOR] = b"\xee" * SECTOR
    assert array.read("v", 0, LENGTH)[0] == written


@pytest.mark.parametrize("kind", sorted(HANDOVER))
def test_reused_buffer_rewritten_elsewhere_reads_back_its_own_bytes(kind):
    """Sector 1 is not on the 1/8 sampling grid, sector 0 is: the second
    write anchors on sector 0 of the first and must stop at sector 1."""
    array, buffer = make_array_and_buffer(seed=22)
    array.write("v", 0, HANDOVER[kind](buffer))
    first = bytes(buffer)
    buffer[SECTOR : 2 * SECTOR] = b"\xee" * SECTOR
    array.write("v", SECOND_OFFSET, HANDOVER[kind](buffer))
    second = bytes(buffer)
    array.drain()
    array.datapath.drop_caches()
    assert array.read("v", SECOND_OFFSET, LENGTH)[0] == second
    assert array.read("v", 0, LENGTH)[0] == first
    # The unchanged sectors still deduplicated against the first write.
    assert array.datapath.dedup_bytes_saved == LENGTH - 2 * SECTOR
