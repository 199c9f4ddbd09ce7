"""Immutable facts, sequence numbers, and their wire encoding.

Everything Purity persists is an immutable fact (Section 3.2): a keyed
tuple stamped with a sequence number. Facts are idempotent and
commutative to insert, which is what makes recovery a set union
(Section 4.3) and lets confused or lagging writers reorder operations
safely.

The wire encoding is a small self-describing tagged format (varints,
length-prefixed bytes/str) used for NVRAM commit records and segment
log records. It is deliberately simple — the *compressed* metadata page
format of Section 4.9 lives in :mod:`repro.metadata.dictpage`; this
format is for the log path, where robustness beats density.
"""

import itertools
import threading
from dataclasses import dataclass

from repro.errors import EncodingError

_TAG_INT = 0
_TAG_BYTES = 1
_TAG_STR = 2
_TAG_NONE = 3
_TAG_TUPLE = 4


@dataclass(frozen=True, order=True)
class Fact:
    """One immutable tuple: ``key`` fields, ``value`` fields, ``seqno``.

    Ordering is (key, seqno, value) so sorted runs cluster by key with
    versions in sequence order — exactly the order patches store.
    """

    key: tuple
    seqno: int
    value: tuple = ()

    def __post_init__(self):
        if not isinstance(self.key, tuple):
            raise TypeError("fact key must be a tuple, got %r" % (self.key,))
        if not isinstance(self.value, tuple):
            raise TypeError("fact value must be a tuple, got %r" % (self.value,))
        if self.seqno < 0:
            raise ValueError("sequence numbers are non-negative")


class SequenceGenerator:
    """Monotonic sequence-number source.

    Sequence numbers are the controlled source of non-monotonicity in
    Purity's otherwise monotone logic (Section 3.2); they are never
    reused, which is also what keeps elide tables collapsible
    (Section 4.10). Thread-safe because benchmark drivers may share one.
    """

    def __init__(self, start=1):
        if start < 1:
            raise ValueError("sequence numbers start at 1 or later")
        self._counter = itertools.count(start)
        self._lock = threading.Lock()
        self._last = start - 1

    @property
    def last_issued(self):
        """The most recently issued sequence number (start-1 if none)."""
        return self._last

    def next(self):
        """Issue the next sequence number."""
        with self._lock:
            self._last = next(self._counter)
            return self._last

    def advance_past(self, seqno):
        """Ensure future numbers exceed ``seqno`` (used by recovery)."""
        with self._lock:
            if seqno >= self._last:
                self._counter = itertools.count(seqno + 1)
                self._last = seqno


def _encode_varint(value, out):
    if value < 0:
        raise EncodingError("varint cannot encode negative %d" % value)
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _decode_varint(data, offset):
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise EncodingError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise EncodingError("varint too long")


def _zigzag(value):
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _unzigzag(value):
    return (value >> 1) ^ -(value & 1)


def _encode_field(field, out):
    if field is None:
        out.append(_TAG_NONE)
    elif isinstance(field, bool):
        # bools are ints in Python; encode as int so decode returns 0/1.
        out.append(_TAG_INT)
        _encode_varint(_zigzag(int(field)), out)
    elif isinstance(field, int):
        out.append(_TAG_INT)
        _encode_varint(_zigzag(field), out)
    elif isinstance(field, bytes):
        out.append(_TAG_BYTES)
        _encode_varint(len(field), out)
        out.extend(field)
    elif isinstance(field, str):
        encoded = field.encode("utf-8")
        out.append(_TAG_STR)
        _encode_varint(len(encoded), out)
        out.extend(encoded)
    elif isinstance(field, tuple):
        out.append(_TAG_TUPLE)
        _encode_varint(len(field), out)
        for item in field:
            _encode_field(item, out)
    else:
        raise EncodingError("cannot encode field of type %s" % type(field).__name__)


def _decode_field(data, offset):
    if offset >= len(data):
        raise EncodingError("truncated field")
    tag = data[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_INT:
        raw, offset = _decode_varint(data, offset)
        return _unzigzag(raw), offset
    if tag == _TAG_BYTES:
        length, offset = _decode_varint(data, offset)
        if offset + length > len(data):
            raise EncodingError("truncated bytes field")
        return bytes(data[offset : offset + length]), offset + length
    if tag == _TAG_STR:
        length, offset = _decode_varint(data, offset)
        if offset + length > len(data):
            raise EncodingError("truncated str field")
        return data[offset : offset + length].decode("utf-8"), offset + length
    if tag == _TAG_TUPLE:
        count, offset = _decode_varint(data, offset)
        items = []
        for _ in range(count):
            item, offset = _decode_field(data, offset)
            items.append(item)
        return tuple(items), offset
    raise EncodingError("unknown field tag %d" % tag)


def encode_value_into(values, out):
    """Append the encoding of a tuple of primitive fields to ``out``.

    ``out`` is the caller's bytearray: a record of many values and facts
    is built in one buffer and turned into ``bytes`` once.
    """
    _encode_varint(len(values), out)
    for field in values:
        _encode_field(field, out)


def encode_value(values):
    """Encode a tuple of primitive fields to bytes."""
    out = bytearray()
    encode_value_into(values, out)
    return bytes(out)


def decode_value(data, offset=0):
    """Decode a tuple encoded by :func:`encode_value`; returns (tuple, end)."""
    count, offset = _decode_varint(data, offset)
    fields = []
    for _ in range(count):
        field, offset = _decode_field(data, offset)
        fields.append(field)
    return tuple(fields), offset


def encode_fact_into(fact, out):
    """Append one fact's serialization to the bytearray ``out``."""
    _encode_varint(fact.seqno, out)
    encode_value_into(fact.key, out)
    encode_value_into(fact.value, out)


def encode_fact(fact):
    """Serialize one fact to bytes."""
    out = bytearray()
    encode_fact_into(fact, out)
    return bytes(out)


def decode_fact(data, offset=0):
    """Deserialize one fact; returns (Fact, end offset)."""
    seqno, offset = _decode_varint(data, offset)
    key, offset = decode_value(data, offset)
    value, offset = decode_value(data, offset)
    return Fact(key=key, seqno=seqno, value=value), offset
