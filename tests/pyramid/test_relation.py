"""Tests for relations (pyramid + elide rules)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pyramid.elision import KeyPrefixPredicate, KeyRangePredicate
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
    whole["answer"] = "memoized"
    view = relation.view(1)
    apply(relation, seq)
    fact = relation.get((1, 0))
    assert (fact.value if fact is not None else None) == expected
    assert relation.memo("whole") is whole and not whole
    # An insert updates the view in place; every other change drops it.
    assert (relation.view(1) is view) == is_insert
    assert [fact.value for fact in relation.view(1)[1]] == (
        [expected] if expected else [])


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


#: One step of a random history over keys (0..3, 0..5) and seqnos 1..40,
#: drawn out of order; a value of 0..2 makes same-seqno ties.
FIRSTS = st.integers(0, 3)
KEYS = st.tuples(FIRSTS, st.integers(0, 5))
SEQNOS = st.integers(1, 40)
STEPS = st.one_of(
    st.tuples(st.just("insert"), KEYS, SEQNOS, st.integers(0, 2)),
    st.just(("reinsert",)),
    st.tuples(st.just("elide_range"), st.integers(0, 5), st.integers(0, 5),
              st.sampled_from([0, 1]), st.none() | SEQNOS),
    st.tuples(st.just("elide_prefix"), FIRSTS, st.none() | SEQNOS),
    st.tuples(st.just("adopt_patch"), KEYS, SEQNOS, st.integers(0, 2)),
    st.sampled_from([("seal",), ("compact",), ("flatten",)]),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(STEPS, max_size=40))
def test_view_equals_a_fresh_scan_after_every_step(steps):
    """Each first field's view, built early and then kept by inserts in
    place, equals a fresh scan of its prefix after every step."""
    relation = Relation("views", key_arity=2, fanout=2)
    last = None
    for step in steps:
        kind, args = step[0], step[1:]
        if kind == "insert":
            key, seqno, value = args
            last = relation.insert(key, (value,), seqno)
        elif kind == "reinsert" and last is not None:
            relation.insert_fact(last)
        elif kind == "elide_range":
            lo, hi, field, as_of_seq = args
            relation.elide(KeyRangePredicate(min(lo, hi), max(lo, hi),
                                             as_of_seq=as_of_seq, field=field))
        elif kind == "elide_prefix":
            first, as_of_seq = args
            relation.elide_prefix((first,), as_of_seq=as_of_seq)
        elif kind == "adopt_patch":
            key, seqno, value = args
            relation.adopt_patch(Patch([Fact(key, seqno, (value,))]))
        elif kind in ("seal", "compact", "flatten"):
            getattr(relation, kind)()
        for first in range(4):
            seconds, facts = relation.view(first)
            scanned = list(relation.scan((first, 0), (first, 5)))
            assert facts == scanned, (step, first)
            assert seconds == [fact.key[1] for fact in scanned]
