"""Tests for the cblock format and write splitting."""

import os
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.cblock import (
    build_cblock,
    parse_cblock,
    split_write,
    unpack_cblock,
)
from repro.compression.engine import CODEC_STORED, CODEC_ZLIB, ZlibCompressor
from repro.errors import EncodingError
from repro.sim.rand import RandomStream
from repro.units import KIB, MAX_CBLOCK, SECTOR
from repro.wire import decode_value, encode_value


def test_build_parse_roundtrip():
    data = b"database page " * 300
    blob, codec_id = build_cblock(data, ZlibCompressor())
    assert codec_id == CODEC_ZLIB
    assert len(blob) < len(data)
    assert parse_cblock(blob) == data


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


@pytest.mark.parametrize("blob", [
    encode_value((CODEC_STORED, 3)) + b"abc",
    encode_value((CODEC_STORED, 3, 3, 0)) + b"abc",
    encode_value(("zlib", 3, 3)) + b"abc",
    encode_value((CODEC_STORED, b"abc", 3)) + b"abc",
    encode_value((CODEC_STORED, None, 3)) + b"abc",
    b"\x03\x00\x00\x00\x86",
    b"\x03\x00\x00\x00" + b"\x80" * 11 + b"\x06\x00\x06abc",
    b"\x83",
    b"",
    encode_value((CODEC_STORED, -3, 3)) + b"abc",
    encode_value((CODEC_STORED, 3, -3)) + b"abc",
    encode_value((-1, 3, 3)) + b"abc",
    encode_value((CODEC_STORED, 3, 4)) + b"abc",
], ids=["2-fields", "4-fields", "str-codec", "bytes-length", "none-length",
        "truncated-varint", "over-long-varint", "truncated-count", "empty",
        "negative-length", "negative-stored", "negative-codec",
        "short-payload"])
def test_a_malformed_header_is_an_encoding_error(blob):
    with pytest.raises(EncodingError):
        parse_cblock(blob)


def _reference_unpack(blob):
    """The generic codec's reading of a cblock: ``decode_value``, then
    three non-negative ints and the whole declared payload."""
    try:
        fields, offset = decode_value(blob)
    except UnicodeDecodeError as error:  # a str field that is not UTF-8
        raise EncodingError(str(error)) from error
    if len(fields) != 3 or not all(type(field) is int and field >= 0
                                   for field in fields):
        raise EncodingError("not a cblock header: %r" % (fields,))
    codec_id, logical_length, payload_length = fields
    if offset + payload_length > len(blob):
        raise EncodingError("truncated")
    return codec_id, logical_length, bytes(blob[offset:offset + payload_length])


def _outcome(unpack, blob):
    try:
        codec_id, logical_length, payload = unpack(blob)
    except EncodingError:
        return "raised"
    return codec_id, logical_length, bytes(payload)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(codec_id=st.integers(0, 2 ** 40), logical_length=st.integers(0, 2 ** 40),
       payload_length=st.one_of(st.integers(0, 300), st.integers(0, 2 ** 40)))
def test_unpack_reads_valid_headers_as_the_generic_codec(
        codec_id, logical_length, payload_length):
    blob = (encode_value((codec_id, logical_length, payload_length))
            + bytes(range(256)) + bytes(44))
    expected = _outcome(_reference_unpack, blob)
    assert _outcome(unpack_cblock, blob) == expected
    if payload_length <= 300:
        assert expected[:2] == (codec_id, logical_length)


def test_unpack_agrees_with_the_generic_codec_on_damaged_blobs():
    """Every truncation and every single-byte change of real cblocks
    (zlib-coded and stored, with 1-, 2- and 3-byte varints): the same
    triple from both readings, or a raise from both."""
    blobs = [build_cblock(data, ZlibCompressor())[0] for data in (
        b"database page " * 30, RandomStream(39).fork("raw").randbytes(512),
        bytes(MAX_CBLOCK))]
    assert [blob[2] for blob in blobs] == [2 * CODEC_ZLIB, 2 * CODEC_STORED,
                                           2 * CODEC_ZLIB]
    for blob in blobs:
        assert _outcome(unpack_cblock, blob) == _outcome(_reference_unpack, blob)
        for cut in range(len(blob)):
            assert (_outcome(unpack_cblock, blob[:cut])
                    == _outcome(_reference_unpack, blob[:cut]) == "raised")
        damaged = bytearray(blob)
        for at in range(len(blob)):
            for flip in range(1, 256):
                damaged[at] = blob[at] ^ flip
                assert (_outcome(unpack_cblock, damaged)
                        == _outcome(_reference_unpack, damaged)), (at, flip)
            damaged[at] = blob[at]


def test_corrupt_payload_raises_encoding_error():
    """A damaged zlib payload is the module's EncodingError, not
    ``zlib.error``."""
    blob = bytearray(build_cblock(b"database page " * 300, ZlibCompressor())[0])
    header = len(blob) - len(zlib.compress(b"database page " * 300, 1))
    blob[header] ^= 0xFF
    blob[header + 1] ^= 0xFF
    with pytest.raises(EncodingError, match="corrupt cblock payload"):
        parse_cblock(bytes(blob))


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
