"""Range scans against a brute-force oracle.

``Pyramid.scan_latest`` bisects every source for the requested range
and merges only those slices. The oracle below is the algorithm it
replaced — one sort of every stored fact, then newest-per-key — and it
lives here only: the answer must be the same facts in the same order for
every input, including the ``(key, seqno)`` tie, where the smallest
``value`` wins.
"""

import pytest

from repro.pyramid.patch import Patch
from repro.pyramid.pyramid import Pyramid
from repro.pyramid.relation import Relation
from repro.pyramid.tuples import Fact
from repro.sim.rand import RandomStream

CASES = 240
MEDIUMS = 4
OFFSETS = range(0, 24, 2)  # even only, so odd bounds fall between keys


def oracle_scan(facts, lo_key=None, hi_key=None):
    """Newest fact per key in [lo_key, hi_key], from one sort of everything."""
    newest = []
    for fact in sorted(set(facts)):  # Fact order is (key, seqno, value)
        if lo_key is not None and fact.key < lo_key:
            continue
        if hi_key is not None and fact.key > hi_key:
            continue
        if newest and newest[-1].key == fact.key:
            if fact.seqno > newest[-1].seqno:
                newest[-1] = fact
        else:
            newest.append(fact)
    return newest


def random_facts(stream, count):
    """Facts over a small key/seqno/value space, so everything collides."""
    return [
        Fact(
            key=(stream.randint(0, MEDIUMS - 1), stream.choice(OFFSETS)),
            seqno=stream.randint(1, 12),
            value=(stream.randint(0, 2),),
        )
        for _ in range(count)
    ]


def bounds_for(stream, facts):
    """One pair of every shape the callers (and careless callers) pass."""
    medium = stream.randint(0, MEDIUMS - 1)
    stored = stream.choice(facts).key if facts else (medium, 4)
    low = (medium, stream.choice(OFFSETS))
    high = (stream.randint(medium, MEDIUMS - 1), stream.choice(OFFSETS))
    return [
        (None, None),
        (low, None),
        (None, high),
        (low, high),                             # sometimes inverted
        (stored, stored),                        # equal, on a stored key
        ((medium, 5), (medium, 5)),              # equal, between keys
        ((medium, 3), (medium, 11)),             # both between keys
        ((medium, 9), (medium, 3)),              # inverted
        ((medium, 0), (medium, 2 ** 62)),        # MediumTable.ranges_of
        ((medium,), (medium + 1,)),              # shorter tuples as bounds
        ((MEDIUMS, 0), None),                    # past every key
        (None, (-1, 0)),                         # before every key
    ]


def build_pyramid(stream):
    """A memtable over 0-12 patches sharing facts out of one pool."""
    pool = random_facts(stream, stream.randint(1, 60))
    pyramid = Pyramid("equiv")
    stored = []
    for _ in range(stream.randint(0, 12)):
        # Sampling one pool puts identical facts in several patches and
        # leaves seqnos out of order down the stack.
        facts = stream.sample(pool, stream.randint(1, min(len(pool), 16)))
        pyramid.adopt_patch(Patch(facts))
        stored += facts
    for _ in range(stream.randint(0, 30)):
        fact = stream.choice(pool)  # several versions per key, and repeats
        pyramid.insert(fact)
        stored.append(fact)
    return pyramid, stored


@pytest.mark.parametrize("case", range(CASES))
def test_scan_latest_matches_oracle(case):
    stream = RandomStream(0x5CA9).fork("pyramid-%d" % case)
    pyramid, stored = build_pyramid(stream)
    for lo_key, hi_key in bounds_for(stream, stored):
        expected = oracle_scan(stored, lo_key, hi_key)
        assert list(pyramid.scan_latest(lo_key, hi_key)) == expected, (lo_key, hi_key)


def test_seqno_tie_yields_the_smallest_value():
    pyramid = Pyramid("tie")
    pyramid.adopt_patch(Patch([Fact((1,), 7, ("b",)), Fact((1,), 3, ("z",))]))
    pyramid.adopt_patch(Patch([Fact((1,), 7, ("c",))]))
    pyramid.insert(Fact((1,), 7, ("a",)))
    pyramid.insert(Fact((1,), 7, ("d",)))
    assert list(pyramid.scan_latest()) == [Fact((1,), 7, ("a",))]


@pytest.mark.parametrize("case", range(CASES // 4))
def test_relation_scan_matches_oracle_under_elisions(case):
    stream = RandomStream(0x5CA9).fork("relation-%d" % case)
    relation = Relation("equiv", key_arity=2)
    stored = random_facts(stream, stream.randint(1, 80))
    for fact in stored:
        relation.insert_fact(fact)
        if stream.random() < 0.15:
            relation.seal()
    range_lo = stream.choice(OFFSETS)
    range_hi = range_lo + stream.randint(0, 6)
    relation.elide_key_range(range_lo, range_hi, field=1)
    prefix = (stream.randint(0, MEDIUMS - 1),)
    relation.elide_prefix(prefix)
    timed_prefix = (stream.randint(0, MEDIUMS - 1), stream.choice(OFFSETS))
    as_of = stream.randint(1, 12)
    relation.elide_prefix(timed_prefix, as_of_seq=as_of)

    def visible(fact):
        if range_lo <= fact.key[1] <= range_hi or fact.key[:1] == prefix:
            return False
        return not (fact.key == timed_prefix and fact.seqno < as_of)

    for lo_key, hi_key in bounds_for(stream, stored):
        newest = oracle_scan(stored, lo_key, hi_key)
        assert list(relation.scan(lo_key, hi_key, ignore_elisions=True)) == newest
        # Elisions filter the newest fact; they do not uncover an older one.
        assert list(relation.scan(lo_key, hi_key)) == [
            fact for fact in newest if visible(fact)
        ]


def test_scan_is_a_snapshot_taken_at_the_first_next():
    relation = Relation("snapshot", key_arity=2)
    for offset in range(0, 40, 4):
        relation.insert((1, offset), ("old",), seqno=offset + 1)
    relation.seal()
    relation.insert((1, 2), ("buffered",), seqno=50)
    expected = list(relation.scan((1, 0), (1, 2 ** 62)))

    scan = relation.scan((1, 0), (1, 2 ** 62))
    relation.insert((1, 1), ("before the first next: seen",), seqno=60)
    seen = [next(scan)]
    relation.insert((1, 0), ("overwrites a yielded key",), seqno=61)
    relation.insert((1, 6), ("a new key ahead of the cursor",), seqno=62)
    relation.insert((1, 8), ("overwrites a key ahead of the cursor",), seqno=63)
    seen.append(next(scan))
    relation.seal()  # the memtable the scan sliced is cleared under it
    relation.insert((1, 10), ("after the seal",), seqno=64)
    seen.extend(scan)

    inserted_first = Fact((1, 1), 60, ("before the first next: seen",))
    assert seen == sorted(expected + [inserted_first])
    assert len(list(relation.scan((1, 0), (1, 2 ** 62)))) == len(expected) + 3
