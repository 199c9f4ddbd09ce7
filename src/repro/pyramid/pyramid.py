"""The pyramid: Purity's log-structured merge index (Section 4.8).

A pyramid is a memtable plus a stack of immutable patches, newest
first. Insertions land in the memtable; sealing produces a patch for
the segment writer. Merge combines patches into one and flatten swaps
the merged patch in for its inputs — both idempotent, so index
maintenance is deadlock-free and an interrupted merge can simply be
retried (or discarded) after a crash.
"""

import itertools

from repro.pyramid.memtable import MemTable
from repro.pyramid.patch import SORT_KEY, merge_patches


class Pyramid:
    """An LSM index over facts."""

    def __init__(self, name, fanout=8):
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        self.name = name
        self.fanout = fanout
        self.memtable = MemTable()
        self._patches = []  # newest first
        self.merges_performed = 0

    @property
    def patches(self):
        """Current patch stack, newest first (read-only view)."""
        return tuple(self._patches)

    @property
    def patch_count(self):
        return len(self._patches)

    @property
    def fact_count(self):
        """Facts across memtable and all patches (including duplicates)."""
        return len(self.memtable) + sum(len(patch) for patch in self._patches)

    def insert(self, fact):
        """Buffer one fact in the memtable (idempotent)."""
        self.memtable.insert(fact)

    def seal(self):
        """Freeze the memtable into a patch on top of the stack.

        Returns the new patch, or None when the memtable is empty.
        """
        if not len(self.memtable):
            return None
        patch = self.memtable.to_patch()
        self.memtable.clear()
        self._patches.insert(0, patch)
        return patch

    def adopt_patch(self, patch):
        """Install an externally built patch (recovery, segment loads)."""
        if len(patch):
            self._patches.insert(0, patch)

    def lookup_latest(self, key, max_seq=None):
        """The newest fact for ``key`` with seqno <= ``max_seq``.

        Checks every source and keeps the max-seqno hit; patch stack
        order is a hint, not a guarantee, because lagging writers may
        insert facts out of order (Section 3.2 allows this).
        """
        best = self.memtable.lookup_latest(key, max_seq)
        for patch in self._patches:
            if best is not None and patch.max_seq < best.seqno:
                continue
            candidate = patch.lookup_latest(key, max_seq)
            if candidate is not None and (best is None or candidate.seqno > best.seqno):
                best = candidate
        return best

    def lookup_all(self, key):
        """Every stored version of ``key``, deduplicated, seqno order."""
        seen = set()
        out = []
        for source in [self.memtable] + self._patches:
            for fact in source.lookup_all(key):
                if fact not in seen:
                    seen.add(fact)
                    out.append(fact)
        out.sort(key=lambda fact: fact.seqno)
        return out

    def scan_latest(self, lo_key=None, hi_key=None):
        """Yield the newest fact per key, in key order.

        Each source is bisected for ``[lo_key, hi_key]`` at the first
        ``next()`` and only those slices are merged, so the cost is
        O(patches * log n + answer) and inserts made while the scan is
        being iterated are not seen by it.
        """
        sources = [self.memtable] + self._patches
        slices = [source.scan(lo_key, hi_key) for source in sources]
        slices = [facts for facts in slices if facts]
        if len(slices) == 1:
            ordered = slices[0]
        else:
            ordered = sorted(itertools.chain.from_iterable(slices), key=SORT_KEY)
        current_key = object()
        best = None
        for fact in ordered:
            if fact.key != current_key:
                if best is not None:
                    yield best
                current_key = fact.key
                best = fact
            elif fact.seqno > best.seqno:
                best = fact
        if best is not None:
            yield best

    def merge(self, count=None, drop=None):
        """Merge the oldest ``count`` patches (default: all) into one.

        ``drop`` is the elision filter applied during the merge. The
        operation is idempotent: the resulting stack serves exactly the
        same lookups. Returns the merged patch (or None if nothing to
        merge).
        """
        if count is None:
            count = len(self._patches)
        if not self._patches:
            return None
        if (count < 2 or len(self._patches) < 2) and drop is None:
            return None  # nothing to combine and nothing to filter
        count = max(1, min(count, len(self._patches)))
        victims = self._patches[-count:]
        merged = merge_patches(victims, drop=drop)
        self._patches = self._patches[:-count] + [merged]
        self.merges_performed += 1
        return merged

    def maybe_compact(self, drop=None):
        """Merge when the stack exceeds the fanout (background policy)."""
        compacted = False
        while len(self._patches) > self.fanout:
            self.merge(count=len(self._patches) - self.fanout + 1, drop=drop)
            compacted = True
        return compacted
