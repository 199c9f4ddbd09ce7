"""Patches: immutable sorted runs of facts.

Patches are the pyramid's analogue of LSM-tree levels/components
(Section 4.8): each describes the difference between one version of the
index and the next, tagged with the sequence-number range it covers.
Merging patches is idempotent and always safe, which is what lets
everything below the pyramid's top level run lock-free.
"""

import bisect
import itertools
import operator

#: Patch order as a plain tuple, so sorts and merges compare in C
#: instead of through ``Fact``'s generated ``__lt__``.
SORT_KEY = operator.attrgetter("key", "seqno", "value")


def key_slice(keys, lo_key=None, hi_key=None):
    """The slice of sorted ``keys`` with lo_key <= key <= hi_key (None = open)."""
    start = 0 if lo_key is None else bisect.bisect_left(keys, lo_key)
    stop = len(keys) if hi_key is None else bisect.bisect_right(keys, hi_key)
    return slice(start, stop)


class Patch:
    """An immutable, key-sorted run of facts with a sequence range."""

    __slots__ = ("facts", "_keys", "min_seq", "max_seq")

    def __init__(self, facts, presorted=False):
        # presorted: ``facts`` is a sequence already in SORT_KEY order.
        ordered = facts if presorted else sorted(facts, key=SORT_KEY)
        self.facts = tuple(ordered)
        self._keys = [fact.key for fact in ordered]
        if ordered:
            self.min_seq = min(fact.seqno for fact in ordered)
            self.max_seq = max(fact.seqno for fact in ordered)
        else:
            self.min_seq = 0
            self.max_seq = -1

    def __len__(self):
        return len(self.facts)

    def __iter__(self):
        return iter(self.facts)

    @property
    def key_range(self):
        """(smallest key, largest key), or None for an empty patch."""
        if not self.facts:
            return None
        return self._keys[0], self._keys[-1]

    def lookup_all(self, key):
        """All facts with exactly this key, in seqno order."""
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key)
        return list(self.facts[lo:hi])

    def lookup_latest(self, key, max_seq=None):
        """Latest fact for ``key`` with seqno <= ``max_seq`` (None = any)."""
        best = None
        for fact in self.lookup_all(key):
            if max_seq is not None and fact.seqno > max_seq:
                continue
            if best is None or fact.seqno > best.seqno:
                best = fact
        return best

    def scan(self, lo_key=None, hi_key=None):
        """The facts with lo_key <= key <= hi_key, in (key, seqno) order."""
        return self.facts[key_slice(self._keys, lo_key, hi_key)]

    def __repr__(self):
        return "Patch(%d facts, seq [%d, %d])" % (
            len(self.facts),
            self.min_seq,
            self.max_seq,
        )


def merge_patches(patches, drop=None):
    """Merge sorted patches into one, deduplicating identical facts.

    ``drop`` is an optional predicate (fact -> bool); matching facts are
    discarded during the merge — this is how the garbage collector
    applies elide records (Section 4.10), reclaiming space at merge time
    instead of waiting for tombstones to reach the bottom level.

    The merge is idempotent: merging a merged patch with itself or
    re-running the merge yields the same facts.
    """
    # One sort of the concatenated runs: Timsort merges them in C.
    ordered = sorted(itertools.chain.from_iterable(patches), key=SORT_KEY)
    # Identical duplicate facts are adjacent; facts are idempotent.
    merged = [next(same) for _, same in itertools.groupby(ordered, key=SORT_KEY)]
    if drop is not None:
        merged = [fact for fact in merged if not drop(fact)]
    return Patch(merged, presorted=True)
