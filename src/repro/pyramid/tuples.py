"""Immutable facts, sequence numbers, and their wire encoding.

Everything Purity persists is an immutable fact (Section 3.2): a keyed
tuple stamped with a sequence number. Facts are idempotent and
commutative to insert, which is what makes recovery a set union
(Section 4.3) and lets confused or lagging writers reorder operations
safely.

A fact's wire form is its sequence number followed by its key and
value tuples in the value codec of :mod:`repro.wire`, the format of
NVRAM commit records and segment log records.
"""

import itertools
import threading
from dataclasses import dataclass

from repro.wire import (decode_value, decode_varint, encode_value_into,
                        encode_varint)
from repro.wire import encode_value  # noqa: F401  (re-exported with decode_value)


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


def encode_fact_into(fact, out):
    """Append one fact's serialization to the bytearray ``out``."""
    encode_varint(fact.seqno, out)
    encode_value_into(fact.key, out)
    encode_value_into(fact.value, out)


def encode_fact(fact):
    """Serialize one fact to bytes."""
    out = bytearray()
    encode_fact_into(fact, out)
    return bytes(out)


def decode_fact(data, offset=0):
    """Deserialize one fact; returns (Fact, end offset)."""
    seqno, offset = decode_varint(data, offset)
    key, offset = decode_value(data, offset)
    value, offset = decode_value(data, offset)
    return Fact(key=key, seqno=seqno, value=value), offset
