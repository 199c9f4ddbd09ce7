"""Tests for the cblock format and write splitting."""

import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.cblock import (
    build_cblock,
    cblock_logical_length,
    parse_cblock,
    split_write,
)
from repro.compression.engine import CODEC_STORED, CODEC_ZLIB, ZlibCompressor
from repro.errors import EncodingError
from repro.units import KIB, MAX_CBLOCK, SECTOR


def test_build_parse_roundtrip():
    data = b"database page " * 300
    blob, codec_id = build_cblock(data, ZlibCompressor())
    assert codec_id == CODEC_ZLIB
    assert len(blob) < len(data)
    assert parse_cblock(blob) == data
    assert cblock_logical_length(blob) == len(data)


def test_incompressible_cblock_stored_raw():
    data = os.urandom(4 * KIB)
    blob, codec_id = build_cblock(data, ZlibCompressor())
    assert codec_id == CODEC_STORED
    assert len(blob) <= len(data) + 16  # tiny header only
    assert parse_cblock(blob) == data


def test_empty_cblock_rejected():
    with pytest.raises(ValueError):
        build_cblock(b"", ZlibCompressor())


def test_truncated_cblock_detected():
    blob, _ = build_cblock(b"y" * SECTOR, ZlibCompressor())
    with pytest.raises(EncodingError):
        parse_cblock(blob[: len(blob) - 2])


def test_split_write_respects_max_cblock():
    data = b"z" * (55 * KIB)  # the paper's mean I/O size, rounded
    pieces = list(split_write(0, data, max_cblock=32 * KIB))
    assert [(offset, len(chunk)) for offset, chunk in pieces] == [
        (0, 32 * KIB),
        (32 * KIB, 23 * KIB),
    ]
    assert b"".join(chunk for _offset, chunk in pieces) == data


def test_split_write_small_write_single_cblock():
    """Reads retrieve one cblock when sized like the write (S4.6)."""
    pieces = list(split_write(8 * KIB, b"q" * (4 * KIB)))
    assert len(pieces) == 1
    assert pieces[0][0] == 8 * KIB


def test_split_write_validates_alignment():
    with pytest.raises(ValueError):
        list(split_write(100, b"x" * SECTOR))
    with pytest.raises(ValueError):
        list(split_write(0, b"x" * 100))
    with pytest.raises(ValueError):
        list(split_write(0, b"x" * SECTOR, max_cblock=100))


@given(
    sectors=st.integers(min_value=1, max_value=200),
    offset_sectors=st.integers(min_value=0, max_value=1000),
)
def test_split_write_covers_exactly(sectors, offset_sectors):
    """The zero-copy chunks equal copied ``bytes`` slices of the write."""
    data = bytes((i % 251) for i in range(sectors * SECTOR))
    offset = offset_sectors * SECTOR
    pieces = [(at, bytes(chunk)) for at, chunk in split_write(offset, data)]
    assert pieces == [
        (offset + start, data[start : start + MAX_CBLOCK])
        for start in range(0, len(data), MAX_CBLOCK)
    ]
