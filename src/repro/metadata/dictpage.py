"""Dictionary-compressed metadata pages (paper Section 4.9).

Each page has a dictionary header with, per tuple field, a list of
bases ``b0..b(B-1)`` and an offset width ``W``. A field value
``v = b_x + o`` is stored as the pair ``(x, o)`` in ``ceil(lg B) + W``
bits; every tuple on the page therefore occupies the same number of
bits. Fields whose value never varies cost zero bits ("extra fields
take up no space"), and a page can be scanned for a value by comparing
the compressed bit pattern at a fixed stride, without decompressing.
"""


from repro.errors import EncodingError
from repro.metadata.bitpack import BitReader, BitWriter
from repro.wire import decode_value, encode_value


def _index_width(base_count):
    """ceil(lg B) — bits needed to select one of ``base_count`` bases."""
    if base_count <= 1:
        return 0
    return (base_count - 1).bit_length()


class FieldDictionary:
    """Base/width dictionary for one tuple field."""

    def __init__(self, bases, offset_width):
        if not bases:
            raise EncodingError("a field dictionary needs at least one base")
        if sorted(bases) != list(bases):
            raise EncodingError("bases must be sorted")
        self.bases = list(bases)
        self.offset_width = offset_width

    @property
    def bits_per_value(self):
        """Bits one field value occupies on the page."""
        return _index_width(len(self.bases)) + self.offset_width

    @classmethod
    def build(cls, values, max_width=32):
        """Choose bases and width minimizing total bits for ``values``.

        For each candidate width, a greedy pass over the sorted unique
        values determines how many bases are needed (a new base starts
        whenever the offset would overflow); the width with the lowest
        per-value cost wins. Ties prefer the narrower width, so a
        constant column costs zero bits.
        """
        unique = sorted(set(values))
        if not unique:
            raise EncodingError("cannot build a dictionary for no values")
        count = len(values)
        base_header_bits = 64  # each base costs ~8 bytes in the page header
        best = None
        for width in range(0, max_width + 1):
            span = 1 << width
            bases = [unique[0]]
            for value in unique[1:]:
                if value - bases[-1] >= span:
                    bases.append(value)
            per_value = _index_width(len(bases)) + width
            cost = count * per_value + len(bases) * base_header_bits
            if best is None or cost < best[0]:
                best = (cost, bases, width)
            if len(bases) == 1:
                break  # wider widths cannot do better than one base
        _cost, bases, width = best
        return cls(bases, width)

    def encode_one(self, value):
        """Map a value to its unique (base index, offset) pair."""
        import bisect

        index = bisect.bisect_right(self.bases, value) - 1
        if index < 0:
            raise EncodingError("value %d below smallest base" % value)
        offset = value - self.bases[index]
        if offset >= (1 << self.offset_width):
            raise EncodingError(
                "value %d not representable (offset %d, width %d)"
                % (value, offset, self.offset_width)
            )
        return index, offset

    def decode_one(self, index, offset):
        """Map (base index, offset) back to the value."""
        return self.bases[index] + offset

    def write_value(self, writer, value):
        """Append one encoded value to a bit stream."""
        index, offset = self.encode_one(value)
        writer.write(index, _index_width(len(self.bases)))
        writer.write(offset, self.offset_width)

    def read_value(self, reader):
        """Read one value from a bit stream."""
        index = reader.read(_index_width(len(self.bases)))
        offset = reader.read(self.offset_width)
        return self.decode_one(index, offset)

    def bit_pattern(self, value):
        """The exact on-page bit pattern of ``value`` (as an int)."""
        index, offset = self.encode_one(value)
        return (index << self.offset_width) | offset

    def read_value_at(self, reader, bit_offset):
        """Decode this field's value at an absolute bit offset."""
        saved = reader.bit_position
        try:
            reader.seek(bit_offset)
            return self.read_value(reader)
        finally:
            reader.seek(saved)


class DictionaryPage:
    """A page of fixed-arity integer tuples in compressed form."""

    def __init__(self, dictionaries, packed_bits, row_count):
        self.dictionaries = dictionaries
        self.packed_bits = packed_bits
        self.row_count = row_count

    @classmethod
    def build(cls, rows):
        """Compress a list of equal-arity integer tuples into a page."""
        if not rows:
            raise EncodingError("cannot build an empty page")
        arity = len(rows[0])
        if any(len(row) != arity for row in rows):
            raise EncodingError("all rows must have the same arity")
        columns = list(zip(*rows))
        dictionaries = [FieldDictionary.build(column) for column in columns]
        writer = BitWriter()
        for row in rows:
            for dictionary, value in zip(dictionaries, row):
                dictionary.write_value(writer, value)
        return cls(dictionaries, writer.getvalue(), len(rows))

    @property
    def bits_per_row(self):
        """Fixed bit width of each tuple on the page."""
        return sum(d.bits_per_value for d in self.dictionaries)

    def field_bit_offset(self, field):
        """Bit offset of ``field`` within each row."""
        return sum(d.bits_per_value for d in self.dictionaries[:field])

    def size_bytes(self):
        """Approximate on-disk page size: header plus packed tuples."""
        return len(self.to_bytes())

    def row(self, index):
        """Decode one tuple."""
        if not 0 <= index < self.row_count:
            raise IndexError(index)
        reader = BitReader(self.packed_bits)
        reader.seek(index * self.bits_per_row)
        return tuple(d.read_value(reader) for d in self.dictionaries)

    def decode_all(self):
        """Decode every tuple on the page."""
        reader = BitReader(self.packed_bits)
        rows = []
        for _ in range(self.row_count):
            rows.append(tuple(d.read_value(reader) for d in self.dictionaries))
        return rows

    def scan_equal(self, field, value):
        """Row indexes where ``field == value``, without decompressing.

        Computes the compressed bit pattern for ``value`` once, then
        compares the raw bits of that field at a fixed stride — the
        Section 4.9 trick. Values not representable on this page match
        nothing.
        """
        dictionary = self.dictionaries[field]
        try:
            target = dictionary.bit_pattern(value)
        except EncodingError:
            return []
        width = dictionary.bits_per_value
        if width == 0:
            # Constant column: everything matches iff value is the constant.
            return list(range(self.row_count)) if dictionary.bases[0] == value else []
        reader = BitReader(self.packed_bits)
        stride = self.bits_per_row
        start = self.field_bit_offset(field)
        matches = []
        for index in range(self.row_count):
            if reader.read_at(start + index * stride, width) == target:
                # Greedy bases are >= 2^W apart, so the pattern is unique;
                # still confirm against the decoded value for safety.
                if dictionary.read_value_at(reader, start + index * stride) == value:
                    matches.append(index)
        return matches

    def to_bytes(self):
        """Serialize header + bit stream for physical storage."""
        header = []
        header.append(len(self.dictionaries))
        header.append(self.row_count)
        payload_parts = []
        for dictionary in self.dictionaries:
            payload_parts.append(
                encode_value(
                    (dictionary.offset_width, tuple(dictionary.bases))
                )
            )
        body = encode_value(tuple(header)) + b"".join(payload_parts)
        return body + encode_value((self.packed_bits,))

    @classmethod
    def from_bytes(cls, data):
        """Deserialize a page produced by :meth:`to_bytes`."""
        (field_count, row_count), offset = decode_value(data, 0)
        dictionaries = []
        for _ in range(field_count):
            (width, bases), offset = decode_value(data, offset)
            dictionaries.append(FieldDictionary(list(bases), width))
        (packed,), _offset = decode_value(data, offset)
        return cls(dictionaries, packed, row_count)
