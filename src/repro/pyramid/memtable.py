"""The DRAM-resident, index-ordered staging area for recent facts.

Section 4.8: persist operations assign a sequence number to a batch of
tuples and insert them into NVRAM; each batch is also cached in DRAM
where it is sorted and indexed in key order. The memtable is that DRAM
cache. Sealing it produces a :class:`~repro.pyramid.patch.Patch` for
the segment writer.
"""

import bisect

from repro.pyramid.patch import SORT_KEY, Patch, key_slice


class MemTable:
    """Mutable key-indexed buffer of recent facts."""

    def __init__(self):
        self._by_key = {}
        self._keys = []  # the distinct keys of _by_key, sorted
        self._count = 0
        self.min_seq = None
        self.max_seq = None

    def __len__(self):
        return self._count

    def insert(self, fact):
        """Add one fact. Re-inserting an identical fact is a no-op."""
        versions = self._by_key.get(fact.key)
        if versions is None:
            versions = self._by_key[fact.key] = []
            bisect.insort(self._keys, fact.key)
        elif fact in versions:
            return
        versions.append(fact)
        self._count += 1
        if self.min_seq is None or fact.seqno < self.min_seq:
            self.min_seq = fact.seqno
        if self.max_seq is None or fact.seqno > self.max_seq:
            self.max_seq = fact.seqno

    def lookup_all(self, key):
        """All buffered facts for ``key`` in seqno order."""
        return sorted(self._by_key.get(key, []), key=lambda fact: fact.seqno)

    def lookup_latest(self, key, max_seq=None):
        """Latest buffered fact for ``key`` with seqno <= ``max_seq``."""
        best = None
        for fact in self._by_key.get(key, ()):
            if max_seq is not None and fact.seqno > max_seq:
                continue
            if best is None or fact.seqno > best.seqno:
                best = fact
        return best

    def scan(self, lo_key=None, hi_key=None):
        """The buffered facts with lo_key <= key <= hi_key, in patch order."""
        facts = []
        for key in self._keys[key_slice(self._keys, lo_key, hi_key)]:
            facts += sorted(self._by_key[key], key=SORT_KEY)
        return facts

    def to_patch(self):
        """Snapshot the current contents as an immutable patch."""
        facts = [fact for versions in self._by_key.values() for fact in versions]
        return Patch(facts)

    def clear(self):
        """Discard all buffered facts."""
        self._by_key.clear()
        self._keys.clear()
        self._count = 0
        self.min_seq = None
        self.max_seq = None

    def keys(self):
        """Iterate buffered keys (unordered)."""
        return iter(self._by_key)
