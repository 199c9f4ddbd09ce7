"""The value codec: tagged tuples of primitive fields, as bytes.

A small self-describing format (varints, zigzag ints, length-prefixed
bytes/str, nested tuples) shared by every record the array persists
outside the metadata pages: NVRAM commit records and segment log
records (via :mod:`repro.pyramid.tuples`), segio headers, cblock
headers, the boot region and dictionary-page headers. It sits below
every package that writes those records, so none of them has to import
the pyramid to frame its bytes. Robustness beats density here; the
compressed metadata page format of Section 4.9 is
:mod:`repro.metadata.dictpage`.
"""

from repro.errors import EncodingError

TAG_INT = 0
_TAG_BYTES = 1
_TAG_STR = 2
_TAG_NONE = 3
_TAG_TUPLE = 4


def encode_varint(value, out):
    """Append ``value`` (>= 0) to the bytearray ``out`` as a LEB128 varint."""
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


def decode_varint(data, offset):
    """Decode one varint at ``offset``; returns (value, end offset)."""
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


def encode_field_into(field, out):
    """Append one tagged field to the bytearray ``out``."""
    if field is None:
        out.append(_TAG_NONE)
    elif isinstance(field, bool):
        # bools are ints in Python; encode as int so decode returns 0/1.
        out.append(TAG_INT)
        encode_varint(_zigzag(int(field)), out)
    elif isinstance(field, int):
        out.append(TAG_INT)
        encode_varint(_zigzag(field), out)
    elif isinstance(field, bytes):
        out.append(_TAG_BYTES)
        encode_varint(len(field), out)
        out.extend(field)
    elif isinstance(field, str):
        encoded = field.encode("utf-8")
        out.append(_TAG_STR)
        encode_varint(len(encoded), out)
        out.extend(encoded)
    elif isinstance(field, tuple):
        out.append(_TAG_TUPLE)
        encode_varint(len(field), out)
        for item in field:
            encode_field_into(item, out)
    else:
        raise EncodingError("cannot encode field of type %s" % type(field).__name__)


def _decode_field(data, offset):
    if offset >= len(data):
        raise EncodingError("truncated field")
    tag = data[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == TAG_INT:
        raw, offset = decode_varint(data, offset)
        return _unzigzag(raw), offset
    if tag == _TAG_BYTES:
        length, offset = decode_varint(data, offset)
        if offset + length > len(data):
            raise EncodingError("truncated bytes field")
        return bytes(data[offset : offset + length]), offset + length
    if tag == _TAG_STR:
        length, offset = decode_varint(data, offset)
        if offset + length > len(data):
            raise EncodingError("truncated str field")
        return data[offset : offset + length].decode("utf-8"), offset + length
    if tag == _TAG_TUPLE:
        count, offset = decode_varint(data, offset)
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
    encode_varint(len(values), out)
    for field in values:
        encode_field_into(field, out)


def encode_value(values):
    """Encode a tuple of primitive fields to bytes."""
    out = bytearray()
    encode_value_into(values, out)
    return bytes(out)


def decode_value(data, offset=0):
    """Decode a tuple encoded by :func:`encode_value`; returns (tuple, end)."""
    count, offset = decode_varint(data, offset)
    fields = []
    for _ in range(count):
        field, offset = _decode_field(data, offset)
        fields.append(field)
    return tuple(fields), offset
