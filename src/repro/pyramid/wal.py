"""The monotonic write-ahead log (paper Figure 4).

Commits are expressed as batches of immutable facts that flow through
the system: a batch is appended to NVRAM (this is the client-visible
commit point, tens of microseconds), buffered in DRAM, and later
written into segios by the segment writer, after which the NVRAM
records are trimmed. Because facts are idempotent, replaying a trimmed
or duplicate record during recovery is harmless — recovery is a set
union (Section 4.3).
"""

from repro.errors import EncodingError
from repro.pyramid.tuples import (
    decode_fact,
    decode_value,
    encode_fact_into,
    encode_value_into,
)


def encode_commit_record(relation_name, facts):
    """Serialize one commit batch for NVRAM or a segment log record.

    One pass into one buffer: a raw write's bytes are copied into it
    and once more into the immutable record, nowhere else.
    """
    out = bytearray()
    encode_value_into((relation_name, len(facts)), out)
    for fact in facts:
        encode_fact_into(fact, out)
    return bytes(out)


def decode_commit_record(data, offset=0):
    """Inverse of :func:`encode_commit_record`; returns (name, facts, end)."""
    header, offset = decode_value(data, offset)
    if len(header) != 2:
        raise EncodingError("malformed commit record header %r" % (header,))
    relation_name, count = header
    facts = []
    for _ in range(count):
        fact, offset = decode_fact(data, offset)
        facts.append(fact)
    return relation_name, facts, offset


class MonotonicWAL:
    """Commit pipeline front half: NVRAM persistence of fact batches."""

    def __init__(self, nvram):
        self.nvram = nvram
        self._pending = []  # (record_id, relation_name, facts) not yet in a segment
        self._persisted_through = -1
        #: Fault-injection crashpoint router (see :mod:`repro.faults`).
        self.crashpoints = None
        self.commits = 0
        self.commit_bytes = 0

    @property
    def pending_count(self):
        """Commit records not yet written into a segment."""
        return len(self._pending)

    def commit(self, relation_name, facts):
        """Persist one batch of facts; returns (record_id, latency).

        The returned latency is the client-visible commit cost — this is
        the point at which Purity acknowledges an application write.
        """
        payload = encode_commit_record(relation_name, facts)
        cp = self.crashpoints
        if cp is not None:
            cp.hit("nvram.pre-append", nvram=self.nvram)
        record_id, latency = self.nvram.append(payload)
        if cp is not None:
            # An armed NVRAM-torn fault fires here: the appended record
            # is dropped (never acknowledged) and the controller dies.
            cp.hit("nvram.post-append", nvram=self.nvram, record_id=record_id)
        self._pending.append((record_id, relation_name, list(facts)))
        self.commits += 1
        self.commit_bytes += len(payload)
        return record_id, latency

    def pending_records(self):
        """Snapshot of unpersisted commit records (for the segment writer)."""
        return list(self._pending)

    def mark_persisted(self, record_id):
        """Note that the segment writer persisted records through ``record_id``.

        Trims NVRAM and the pending list. Sequence numbers are monotone,
        so everything at or below ``record_id`` is durable in segments.
        """
        self._persisted_through = max(self._persisted_through, record_id)
        self._pending = [
            entry for entry in self._pending if entry[0] > self._persisted_through
        ]
        self.nvram.trim(self._persisted_through)

    def recovery_scan(self):
        """Read surviving commit records from NVRAM after a crash.

        Returns ([(relation_name, facts)], simulated latency). Records
        already persisted to segments may appear again; inserting their
        facts twice is harmless by design.
        """
        records, latency = self.nvram.scan()
        batches = []
        for _record_id, payload in records:
            relation_name, facts, _end = decode_commit_record(payload)
            batches.append((relation_name, facts))
        return batches, latency
