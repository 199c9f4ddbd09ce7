"""Relations: a pyramid plus its elide rules.

Purity stores metadata in "log structured relational structures"
(Section 3): each relation is a set of immutable facts indexed by a
pyramid, with deletion policy expressed as elide rules over an elide
table (Section 4.10). Readers may run in a relaxed mode that ignores
retractions entirely, observing tuples that no longer exist — which is
safe because facts are immutable.

A relation memoizes answers derived from it (:meth:`Relation.memo`)
until it changes. Every call that can change what :meth:`Relation.get`
or :meth:`Relation.scan` returns — an insert, an elide record, an
adopted patch, a merge — goes through this class and empties the memos.
Sealing only moves facts from the memtable into a patch, so it keeps
them. A catalog row (a volume, a snapshot, a medium's ranges, a
segment's placements) is thus looked up in the index once per change to
its relation, not once per I/O. A view (:meth:`Relation.view`, a
medium's extents) is instead updated in place by an insert, so a lookup
bisects one list however many patches the pyramid holds.
"""

import bisect

from repro import sanitize
from repro.pyramid.elision import ElideTable, KeyPrefixPredicate, KeyRangePredicate
from repro.pyramid.pyramid import Pyramid
from repro.pyramid.tuples import Fact


class _Above:
    """Sorts after any key field, so ``(first, _ABOVE)`` bounds a prefix."""

    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return True


_ABOVE = _Above()


class Relation:
    """A named table of immutable facts with predicate-based deletion."""

    def __init__(self, name, key_arity=1, fanout=8):
        if key_arity < 1:
            raise ValueError("key arity must be at least 1")
        self.name = name
        self.key_arity = key_arity
        self.pyramid = Pyramid(name, fanout=fanout)
        self.elide_table = ElideTable(name + ".elide")
        self._memos = {}
        #: first key field -> (second key fields, facts); see :meth:`view`.
        self._views = {}
        #: Cross-check every view against a fresh scan (REPRO_SANITIZE).
        self._sanitize = sanitize.enabled()
        #: key -> newest visible fact or None, for :meth:`get`'s common form.
        self._latest = self.memo("get")

    def memo(self, name):
        """The dict ``name`` for answers derived from this relation.

        Every change to the relation empties it in place, so a caller may
        keep the dict and trust any entry it finds in it.
        """
        return self._memos.setdefault(name, {})

    def view(self, first):
        """``(second key fields, facts)`` of the newest visible facts whose
        two-field key starts with ``first``, in key order: one scan on
        first use, kept current by inserts (:meth:`_changed`) and dropped
        by any other change. Slice the lists; never mutate them."""
        view = self._views.get(first)
        if view is None or self._sanitize:
            facts = list(self.scan((first,), (first, _ABOVE)))
            fresh = ([fact.key[1] for fact in facts], facts)
            if view is None:
                view = self._views[first] = fresh
            elif view != fresh:
                raise sanitize.SanitizeError(
                    "sanitize[%s]: view of %r differs from a scan of it"
                    % (self.name, first))
        return view

    def _changed(self, fact=None):
        """Forget what a change invalidates; ``fact`` names an insert,
        which updates its first field's view in place: a newer fact takes
        its key, an older one (or a tie a scan ranks second) is ignored,
        and an elided one removes its key. Elision is monotone in seqno
        (an elided fact's older versions are elided too), so the view
        always equals a scan."""
        for memo in self._memos.values():
            memo.clear()
        if fact is None:
            self._views.clear()
            return
        view = self._views.get(fact.key[0])
        if view is None:
            return
        seconds, facts = view
        index = bisect.bisect_left(seconds, fact.key[1])
        found = index < len(seconds) and seconds[index] == fact.key[1]
        if found and (facts[index].seqno, fact.value) >= (
                fact.seqno, facts[index].value):
            return
        if self.elide_table.is_elided(fact):
            if found:
                del seconds[index], facts[index]
        elif found:
            facts[index] = fact
        else:
            seconds.insert(index, fact.key[1])
            facts.insert(index, fact)

    def make_fact(self, key, value, seqno):
        """Build a fact, validating key arity."""
        key = tuple(key)
        if len(key) != self.key_arity:
            raise ValueError(
                "%s expects %d key fields, got %r" % (self.name, self.key_arity, key)
            )
        return Fact(key=key, seqno=seqno, value=tuple(value))

    def insert(self, key, value, seqno):
        """Insert one fact; returns it. Idempotent and commutative."""
        fact = self.make_fact(key, value, seqno)
        self.pyramid.insert(fact)
        self._changed(fact)
        return fact

    def insert_fact(self, fact):
        """Insert a pre-built fact (commit and recovery paths)."""
        self.pyramid.insert(fact)
        self._changed(fact)

    def adopt_patch(self, patch):
        """Install a persisted patch (recovery)."""
        self.pyramid.adopt_patch(patch)
        self._changed()

    def get(self, key, max_seq=None, ignore_elisions=False):
        """Latest visible fact for ``key``, or None.

        ``ignore_elisions=True`` is the relaxed consistency mode from
        Section 3.2: the reader skips the retraction check and may see
        deleted tuples. The common form, with neither option, is
        memoized until the relation changes.
        """
        key = tuple(key)
        memoized = max_seq is None and not ignore_elisions
        if memoized and key in self._latest:
            return self._latest[key]
        fact = self.pyramid.lookup_latest(key, max_seq)
        if (fact is not None and not ignore_elisions
                and self.elide_table.is_elided(fact)):
            fact = None
        if memoized:
            self._latest[key] = fact
        return fact

    def get_value(self, key, max_seq=None, default=None):
        """The value tuple of the latest visible fact, or ``default``."""
        fact = self.get(key, max_seq)
        return fact.value if fact is not None else default

    def scan(self, lo_key=None, hi_key=None, ignore_elisions=False):
        """Yield the newest visible fact per key in key order."""
        for fact in self.pyramid.scan_latest(lo_key, hi_key):
            if ignore_elisions or not self.elide_table.is_elided(fact):
                yield fact

    def elide(self, predicate):
        """Apply one deletion predicate (see :mod:`repro.pyramid.elision`)."""
        self.elide_table.insert(predicate)
        self._changed()

    def elide_key_range(self, lo, hi, field=0):
        """Atomically delete all facts with key[field] in [lo, hi]."""
        self.elide(KeyRangePredicate(lo, hi, field=field))

    def elide_prefix(self, prefix, as_of_seq=None):
        """Atomically delete all facts whose key starts with ``prefix``."""
        self.elide(KeyPrefixPredicate(tuple(prefix), as_of_seq=as_of_seq))

    def seal(self):
        """Seal the memtable into a patch (segment-writer hand-off)."""
        return self.pyramid.seal()

    def compact(self):
        """Background merge; drops elided facts during the merge."""
        compacted = self.pyramid.maybe_compact(drop=self.elide_table.is_elided)
        self._changed()
        return compacted

    def flatten(self):
        """Merge the whole pyramid into one patch, applying elisions."""
        self.pyramid.seal()
        merged = self.pyramid.merge(drop=self.elide_table.is_elided)
        self._changed()
        return merged

    def live_fact_count(self):
        """Visible facts (latest version per key, elisions applied)."""
        return sum(1 for _ in self.scan())

    def stored_fact_count(self):
        """Physical facts held, including superseded and elided ones."""
        return self.pyramid.fact_count
