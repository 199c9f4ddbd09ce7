"""Tests for relations (pyramid + elide rules)."""

import pytest

from repro.pyramid.elision import KeyPrefixPredicate
from repro.pyramid.patch import Patch
from repro.pyramid.relation import Relation
from repro.pyramid.tuples import Fact, SequenceGenerator
from repro.sim.rand import RandomStream


@pytest.fixture
def relation():
    return Relation("blocks", key_arity=2)


@pytest.fixture
def seq():
    return SequenceGenerator()


def test_insert_and_get(relation, seq):
    relation.insert((1, 0), ("payload",), seq.next())
    fact = relation.get((1, 0))
    assert fact.value == ("payload",)
    assert relation.get_value((1, 0)) == ("payload",)
    assert relation.get((9, 9)) is None
    assert relation.get_value((9, 9), default="missing") == "missing"


def test_key_arity_enforced(relation, seq):
    with pytest.raises(ValueError):
        relation.insert((1,), ("short",), seq.next())


def test_latest_version_wins(relation, seq):
    relation.insert((1, 0), ("v1",), seq.next())
    relation.insert((1, 0), ("v2",), seq.next())
    assert relation.get_value((1, 0)) == ("v2",)


def test_elision_hides_facts(relation, seq):
    relation.insert((1, 0), ("a",), seq.next())
    relation.insert((2, 0), ("b",), seq.next())
    relation.elide_prefix((1,))
    assert relation.get((1, 0)) is None
    assert relation.get((2, 0)) is not None


def test_relaxed_readers_see_elided_facts(relation, seq):
    """Section 3.2: relaxed readers may observe deleted tuples."""
    relation.insert((1, 0), ("ghost",), seq.next())
    relation.elide_prefix((1,))
    assert relation.get((1, 0)) is None
    assert relation.get((1, 0), ignore_elisions=True).value == ("ghost",)


def test_scan_filters_elisions(relation, seq):
    for medium in range(4):
        relation.insert((medium, 0), (medium,), seq.next())
    relation.elide_prefix((2,))
    visible = [fact.key[0] for fact in relation.scan()]
    assert visible == [0, 1, 3]
    assert relation.live_fact_count() == 3


def test_flatten_physically_drops_elided(relation, seq):
    for medium in range(10):
        relation.insert((medium, 0), (medium,), seq.next())
    relation.elide_key_range(0, 4)
    assert relation.stored_fact_count() == 10
    relation.flatten()
    assert relation.stored_fact_count() == 5
    assert relation.get((7, 0)) is not None


def test_compact_applies_fanout(seq):
    relation = Relation("small", key_arity=1, fanout=2)
    for round_number in range(6):
        relation.insert((round_number,), (round_number,), seq.next())
        relation.seal()
    assert relation.pyramid.patch_count == 6
    relation.compact()
    assert relation.pyramid.patch_count <= 2
    assert relation.get_value((3,)) == (3,)


def test_insert_is_idempotent(relation, seq):
    seqno = seq.next()
    fact = relation.insert((1, 1), ("same",), seqno)
    relation.insert_fact(fact)  # redelivery
    assert relation.stored_fact_count() == 1


def test_invalid_arity():
    with pytest.raises(ValueError):
        Relation("bad", key_arity=0)


# ----------------------------------------------------------------------
# Memos: an answer is read from the index once per change


def count_lookups(monkeypatch, relation):
    calls = []
    lookup = relation.pyramid.lookup_latest

    def counting(key, max_seq=None):
        calls.append(key)
        return lookup(key, max_seq)

    monkeypatch.setattr(relation.pyramid, "lookup_latest", counting)
    return calls


def test_get_reads_the_index_once_per_change(relation, seq, monkeypatch):
    relation.insert((1, 0), ("a",), seq.next())
    calls = count_lookups(monkeypatch, relation)
    for _ in range(3):
        assert relation.get((1, 0)).value == ("a",)
        assert relation.get((9, 9)) is None
    assert len(calls) == 2
    relation.seal()  # moves facts into a patch, changes no answer
    relation.get((1, 0))
    assert len(calls) == 2
    relation.insert((1, 0), ("b",), seq.next())
    assert relation.get((1, 0)).value == ("b",)
    assert len(calls) == 3
    # Either option asks the index every time.
    relation.get((1, 0), ignore_elisions=True)
    relation.get((1, 0), max_seq=1)
    assert len(calls) == 5


#: Each change to a relation holding ("old",) at (1, 0), with the value
#: it leaves there (None: gone) and whether it is an insert.
CHANGES = {
    "insert": (lambda r, seq: r.insert((1, 0), ("new",), seq.next()),
               ("new",), True),
    "insert_fact": (lambda r, seq: r.insert_fact(
        r.make_fact((1, 0), ("new",), seq.next())), ("new",), True),
    "adopt_patch": (lambda r, seq: r.adopt_patch(
        Patch([Fact((1, 0), seq.next(), ("new",))])), ("new",), False),
    "elide": (lambda r, seq: r.elide(KeyPrefixPredicate((1,))), None, False),
    "elide_prefix": (lambda r, seq: r.elide_prefix((1,)), None, False),
    "elide_key_range": (lambda r, seq: r.elide_key_range(1, 1), None, False),
    "compact": (lambda r, seq: r.compact(), ("old",), False),
    "flatten": (lambda r, seq: r.flatten(), ("old",), False),
}


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_every_change_empties_what_it_invalidates(relation, seq, change):
    apply, expected, is_insert = CHANGES[change]
    relation.insert((1, 0), ("old",), seq.next())
    relation.seal()
    assert relation.get((1, 0)).value == ("old",)
    whole = relation.memo("whole")
    by_medium = relation.memo("by-medium", by_first_field=True)
    whole["answer"] = by_medium[1] = by_medium[2] = "memoized"
    apply(relation, seq)
    fact = relation.get((1, 0))
    assert (fact.value if fact is not None else None) == expected
    assert relation.memo("whole") is whole and not whole
    # An insert drops only its own first field's entry.
    assert by_medium == ({2: "memoized"} if is_insert else {})


def test_memoized_get_agrees_with_the_index_under_seeded_churn(seq):
    relation = Relation("churn", key_arity=2, fanout=2)
    stream = RandomStream(7)
    checked = 0
    for step in range(2000):
        op = stream.randint(0, 9)
        key = (stream.randint(0, 4), stream.randint(0, 3))
        if op < 4:
            relation.insert(key, (step,), seq.next())
        elif op == 4:
            relation.elide_prefix(key[:1], as_of_seq=seq.next())
        elif op == 5:
            relation.seal()
        elif op == 6:
            relation.compact()
        else:
            latest = relation.pyramid.lookup_latest(key)
            if latest is not None and relation.elide_table.is_elided(latest):
                latest = None
            assert relation.get(key) == latest
            checked += 1
    assert checked > 500
