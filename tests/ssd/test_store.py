"""Tests for the sparse byte store, including property-based coverage."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd.store import SparseByteStore
from repro.units import MIB


def test_read_of_hole_is_zeros():
    store = SparseByteStore()
    assert store.read(100, 10) == b"\x00" * 10


def test_write_then_read_roundtrip():
    store = SparseByteStore()
    store.write(50, b"hello")
    assert store.read(50, 5) == b"hello"
    assert store.read(48, 9) == b"\x00\x00hello\x00\x00"


def test_overwrite_replaces():
    store = SparseByteStore()
    store.write(0, b"aaaaaaaa")
    store.write(2, b"BB")
    assert store.read(0, 8) == b"aaBBaaaa"


def test_adjacent_writes_coalesce():
    store = SparseByteStore()
    store.write(0, b"aaaa")
    store.write(4, b"bbbb")
    assert store.run_count == 1
    assert store.read(0, 8) == b"aaaabbbb"


def test_write_bridging_two_runs_coalesces():
    store = SparseByteStore()
    store.write(0, b"aa")
    store.write(6, b"bb")
    assert store.run_count == 2
    store.write(2, b"cccc")
    assert store.run_count == 1
    assert store.read(0, 8) == b"aaccccbb"


def test_discard_punches_hole():
    store = SparseByteStore()
    store.write(0, b"abcdefgh")
    store.discard(2, 4)
    assert store.read(0, 8) == b"ab\x00\x00\x00\x00gh"
    assert store.run_count == 2


def test_discard_entire_run():
    store = SparseByteStore()
    store.write(10, b"xyz")
    store.discard(0, 100)
    assert store.read(10, 3) == b"\x00\x00\x00"
    assert store.run_count == 0
    assert len(store) == 0


def test_clear():
    store = SparseByteStore()
    store.write(0, b"data")
    store.clear()
    assert len(store) == 0
    assert store.read(0, 4) == b"\x00" * 4


def test_extents():
    store = SparseByteStore()
    store.write(100, b"aa")
    store.write(0, b"bbb")
    assert list(store.extents()) == [(0, 3), (100, 2)]


def test_empty_write_is_noop():
    store = SparseByteStore()
    store.write(5, b"")
    assert store.run_count == 0


def test_bytes_unit_is_stored_by_reference():
    """A finalized write unit lands without a copy and reads back as itself."""
    store = SparseByteStore()
    unit = bytes(range(256)) * 64
    store.write(4096, unit)
    assert store.read(4096, len(unit)) is unit
    assert store.read(4096 + 10, 20) == unit[10:30]


def test_mutable_argument_is_copied_once():
    """The caller may reuse a bytearray/memoryview buffer after ``write``."""
    store = SparseByteStore()
    buffer = bytearray(b"abcdefgh")
    store.write(0, buffer)
    store.write(8, memoryview(buffer)[2:6])
    buffer[:] = b"\xa5" * 8  # what the sanitizer's poison fill does
    assert store.read(0, 12) == b"abcdefghcdef"
    stored = store.read(0, 8)
    assert type(stored) is bytes and store.read(0, 8) is stored  # copied once


def test_abutting_programs_coalesce_in_view_but_never_move():
    """Eight 1 MiB programs fill an AU: one extent, eight untouched units.

    Identity, not tracemalloc: a ``realloc`` that moves a growing run
    does not show in a tracemalloc peak.
    """
    store = SparseByteStore()
    units = [bytes([index + 1]) * MIB for index in range(8)]
    for index, unit in enumerate(units):
        store.write(index * MIB, unit)
    assert store.run_count == 1
    assert list(store.extents()) == [(0, 8 * MIB)]
    assert len(store) == 8 * MIB
    for index, unit in enumerate(units):
        assert store.read(index * MIB, MIB) is unit
    # A read across the seam is still assembled correctly.
    assert store.read(MIB - 2, 4) == b"\x01\x01\x02\x02"


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["write", "discard"]),
            st.integers(min_value=0, max_value=256),
            st.integers(min_value=0, max_value=64),
        ),
        max_size=30,
    )
)
def test_matches_flat_reference(ops):
    """The sparse store behaves exactly like a flat zeroed buffer."""
    store = SparseByteStore()
    reference = bytearray(512)
    for kind, offset, length in ops:
        if kind == "write":
            payload = bytes((offset + i) % 251 + 1 for i in range(length))
            store.write(offset, payload)
            reference[offset : offset + length] = payload
        else:
            store.discard(offset, length)
            reference[offset : offset + length] = b"\x00" * length
    assert store.read(0, 512) == bytes(reference)
    # Runs must be non-overlapping, sorted, and non-adjacent.
    extents = list(store.extents())
    for (start_a, len_a), (start_b, _len_b) in zip(extents, extents[1:]):
        assert start_a + len_a < start_b
