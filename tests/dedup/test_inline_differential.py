"""``find_matches`` held to ``find_matches_reference``, and its cost counted.

The live matcher screens an anchor on its cblock's hashes, fetches the
candidate cblock once per surviving anchor and gallops over ``bytes``
slices; the reference verifies one sector per fetch. On a seeded corpus
built to be mostly *futile* anchors (stored cblocks share a small pool
of filler sectors, as the benchmark's generators do) plus every shape
of true run, both must return the same matches, counters, ``lookups``
and sequence of hashes asked (through ``lookup`` or ``probe``): all of
them when the index entries carry no hashes, all but
``false_hash_hits`` (which a screened anchor never reaches) when they
do. The guards then count fetches and bytes sliced — no wall clock — so
a futile anchor cannot quietly go back to costing a fetch, or O(cblock).
"""

import pytest

from repro.dedup.hashing import sector_hash, sector_hash_vector
from repro.dedup.index import DedupIndex, DedupLocation
from repro.dedup.inline import InlineDeduper
from repro.sim.rand import RandomStream
from repro.units import SECTOR

from tests.dedup.test_inline import make_deduper, store_cblock, unique_sectors

FILLERS = [bytes([0xF0 + k]) * SECTOR for k in range(4)]
INPUT_KINDS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": lambda data: memoryview(bytearray(data)),
}
CASES_PER_KIND = 120


class RecordingIndex(DedupIndex):
    """A DedupIndex that remembers every hash it was asked about, one
    per ``lookup`` and one per position a ``probe`` passes or stops at."""

    def __init__(self, promote_hits=2, **capacities):
        super().__init__(promote_hits=promote_hits, **capacities)
        self.asked = []

    def lookup(self, sector_hash_value):
        self.asked.append(sector_hash_value)
        return super().lookup(sector_hash_value)

    def probe(self, hashes, start):
        position, location = super().probe(hashes, start)
        self.asked.extend(hashes[start : position + 1])
        return position, location


def cut(data, first, last):
    return data[first * SECTOR : last * SECTOR]


def seeded_case(seed, with_hashes=False):
    """(store, index, incoming bytes, min_run) — same seed, same case."""
    stream = RandomStream(seed)
    store, index = {}, RecordingIndex()
    sample_every = stream.choice([1, 4, 8])
    for segment_id in range(1, stream.randint(1, 4) + 1):
        data = b"".join(
            stream.choice(FILLERS) if stream.random() < 0.35
            else stream.randbytes(SECTOR)
            for _ in range(stream.randint(1, 64))
        )
        store_cblock(store, index, segment_id, data, sample_every,
                     with_hashes)
    pieces = []
    for _ in range(stream.randint(1, 6)):
        shape = stream.choice(
            ["run", "to-cblock-end", "abutting", "overlapping",
             "filler", "filler", "filler", "unique"]
        )
        data = store[stream.choice(sorted(store))]
        sectors = len(data) // SECTOR
        first = stream.randint(0, sectors - 1)
        last = stream.randint(first + 1, sectors)
        if shape == "run":  # aligned or not, any length
            pieces.append(cut(data, first, last))
        elif shape == "to-cblock-end":
            pieces.append(cut(data, first, sectors))
        elif shape == "abutting":  # two runs back to back, no gap
            other = store[stream.choice(sorted(store))]
            pieces.append(cut(data, first, last))
            pieces.append(cut(other, 0, stream.randint(1, len(other) // SECTOR)))
        elif shape == "overlapping":  # the second run re-covers the first:
            # its backward walk must stop at the previous match
            pieces.append(cut(data, first, last))
            pieces.append(cut(data, stream.randint(first, last - 1), sectors))
        elif shape == "filler":
            pieces.extend(
                stream.choice(FILLERS) for _ in range(stream.randint(1, 6))
            )
        else:
            pieces.append(stream.randbytes(SECTOR * stream.randint(1, 9)))
    if stream.random() < 0.5:  # otherwise the last run ends the chunk
        pieces.append(stream.randbytes(SECTOR))
    incoming = b"".join(pieces)[: 64 * SECTOR]
    total = len(incoming) // SECTOR
    # Index entries that must be rejected, never matched or raised on.
    for _ in range(stream.randint(0, 2)):
        at = stream.randint(0, total - 1)
        value = sector_hash(cut(incoming, at, at + 1))
        segment_id = stream.choice(sorted(store))
        stored_sectors = len(store[segment_id]) // SECTOR
        sector_index = stream.choice(
            [-1, -stored_sectors, stored_sectors, stored_sectors + 7,
             stream.randint(0, stored_sectors - 1)]  # poisoned: wrong bytes
        )
        vector = sector_hash_vector(store[segment_id]) if with_hashes else None
        index.record(
            value,
            DedupLocation(segment_id, 0, len(store[segment_id]), sector_index,
                          vector),
        )
    if len(store) > 1 and stream.random() < 0.1:
        del store[stream.choice(sorted(store))]  # stale: it was collected
    return store, index, incoming, stream.choice([1, 8, 8, 8])


def run_matcher(case, kind, reference):
    store, index, incoming, min_run = case
    deduper = make_deduper(store, index, min_run)
    matcher = deduper.find_matches_reference if reference else deduper.find_matches
    matches = matcher(INPUT_KINDS[kind](incoming))
    return {
        "matches": [(m.sector_start, m.sector_count, m.location) for m in matches],
        "matches_found": deduper.matches_found,
        "false_hash_hits": deduper.false_hash_hits,
        "asked": index.asked,
        "lookups": index.lookups,
        "hits": index.hits,
        "anchors_fetched": deduper.anchors_fetched,
        "anchors_screened": deduper.anchors_screened,
    }


#: What the live matcher must share with the reference; a screened
#: anchor is never fetched, so it cannot be a ``false_hash_hit``.
EXACT = ("matches", "matches_found", "false_hash_hits", "asked", "lookups",
         "hits")
SCREENED = ("matches", "matches_found", "asked", "lookups", "hits")


def assert_same_as_reference(make_case, kind, label, compared=EXACT):
    live = run_matcher(make_case(), kind, reference=False)
    reference = run_matcher(make_case(), kind, reference=True)
    assert [live[key] for key in compared] \
        == [reference[key] for key in compared], label
    # Independently of the oracle: every emitted run is real and disjoint.
    store, _index, incoming, min_run = make_case()
    claimed = 0
    for sector_start, sector_count, location in live["matches"]:
        assert sector_start >= claimed and sector_count >= min_run, label
        claimed = sector_start + sector_count
        stored = store[location.segment_id]
        assert cut(stored, location.sector_index,
                   location.sector_index + sector_count) \
            == cut(incoming, sector_start, claimed), label
    return live


@pytest.mark.parametrize("kind", sorted(INPUT_KINDS))
def test_seeded_corpus_matches_reference(kind):
    base = 1000 * sorted(INPUT_KINDS).index(kind)
    anchors = futile = matches = rejected = 0
    for seed in range(base, base + CASES_PER_KIND):
        outcome = assert_same_as_reference(
            lambda seed=seed: seeded_case(seed), kind, "seed %d" % seed
        )
        anchors += outcome["hits"]
        matches += outcome["matches_found"]
        rejected += outcome["false_hash_hits"]
        futile += (outcome["hits"] - outcome["matches_found"]
                   - outcome["false_hash_hits"])
        assert outcome["anchors_screened"] == 0  # no hashes, no screen
    # The corpus exercises what it claims to: mostly futile anchors,
    # but plenty of real runs and rejected candidates too.
    assert futile > anchors // 2
    assert matches > CASES_PER_KIND
    assert rejected > CASES_PER_KIND // 4


@pytest.mark.parametrize("kind", sorted(INPUT_KINDS))
def test_seeded_corpus_with_hashes_matches_reference(kind):
    """The same corpus with every index entry carrying its cblock's
    hashes (the poisoned entries point at wrong sectors of a real
    vector): same matches, and every anchor is fetched or screened."""
    base = 1000 * sorted(INPUT_KINDS).index(kind)
    anchors = fetched = matches = 0
    for seed in range(base, base + CASES_PER_KIND):
        outcome = assert_same_as_reference(
            lambda seed=seed: seeded_case(seed, with_hashes=True), kind,
            "seed %d" % seed, compared=SCREENED,
        )
        assert outcome["hits"] == (outcome["anchors_fetched"]
                                   + outcome["anchors_screened"])
        assert outcome["anchors_fetched"] >= outcome["matches_found"]
        anchors += outcome["hits"]
        fetched += outcome["anchors_fetched"]
        matches += outcome["matches_found"]
    # Mostly futile anchors, so mostly no fetch; a fetch that finds
    # nothing is rare (a stale cblock, a short run the screen let by).
    assert matches > CASES_PER_KIND
    assert fetched < anchors // 2
    assert fetched < 2 * matches


def named_scenarios():
    """(name, incoming, [(segment_id, stored bytes)]) — the hand-written
    shapes the per-sector and bulk extension paths were first held to."""
    base = unique_sectors(32, salt=20)
    other = unique_sectors(16, salt=23)
    return [
        ("exact", base, [(1, base)]),
        ("misaligned",
         unique_sectors(3, salt=21) + cut(base, 5, 29), [(1, base)]),
        ("two-runs",
         cut(base, 0, 16) + unique_sectors(8, salt=22) + other,
         [(1, base), (2, other)]),
        ("partial-tail-mismatch",
         cut(base, 0, 12) + unique_sectors(20, salt=24), [(1, base)]),
        ("wraparound-overlap", base + cut(base, 0, 16), [(1, base)]),
    ]


def test_named_scenarios_match_reference():
    for name, incoming, stored in named_scenarios():
        for kind in sorted(INPUT_KINDS):
            for min_run in (1, 8):
                def make_case(incoming=incoming, stored=stored, min_run=min_run):
                    store, index = {}, RecordingIndex()
                    for segment_id, data in stored:
                        store_cblock(store, index, segment_id, data)
                    return store, index, incoming, min_run

                outcome = assert_same_as_reference(
                    make_case, kind, "%s/%s/min_run=%d" % (name, kind, min_run)
                )
                assert outcome["matches_found"] >= 1, name


def test_promotion_that_evicts_a_later_candidate_turns_it_into_a_miss():
    """A one-entry frequent tier holds the hash of a run further on in
    the chunk. The chunk's first anchor is promoted on its hit and
    evicts it, so by the time the cursor reaches that run its hash is a
    miss — the live path must ask about it and get None, as the
    reference does, not remember it as present from the start."""
    early = unique_sectors(16, salt=40)
    late = unique_sectors(16, salt=41)
    early_hash = sector_hash(cut(early, 0, 1))
    late_hash = sector_hash(cut(late, 0, 1))
    incoming = cut(early, 0, 4) + unique_sectors(4, salt=42) + late

    def make_case():
        store = {1: early, 2: late}
        index = RecordingIndex(promote_hits=1, frequent_capacity=1)
        index.record(late_hash, DedupLocation(2, 0, len(late), 0))
        assert index.lookup(late_hash) is not None  # promoted: frequent
        index.record(early_hash, DedupLocation(1, 0, len(early), 0))
        index.asked.clear()
        return store, index, incoming, 8

    for kind in sorted(INPUT_KINDS):
        outcome = assert_same_as_reference(make_case, kind, kind)
        # The early anchor is too short to match; the late run would
        # match, had its hash not been evicted before the cursor got there.
        assert outcome["matches"] == [], kind
        assert outcome["hits"] == 2, kind  # the set-up lookup + the anchor
        assert outcome["asked"][0] == early_hash, kind
        assert outcome["asked"][8] == late_hash, kind
        assert outcome["lookups"] == 1 + len(incoming) // SECTOR, kind


# ----------------------------------------------------------------------
# Counted cost: fetches and bytes sliced out of the stored cblock


class CountingBytes(bytes):
    """``bytes`` that add up the length of every slice taken of them."""

    sliced = 0

    def __getitem__(self, key):
        out = bytes.__getitem__(self, key)
        if isinstance(key, slice):
            self.sliced += len(out)
        return out


def counted_run(stored, incoming, sample_every, with_hashes=False):
    """find_matches over one stored cblock; returns (matches, fetches,
    bytes sliced from the cblock, index)."""
    store, index = {}, RecordingIndex()
    store_cblock(store, index, 1, stored, sample_every, with_hashes)
    counting = CountingBytes(stored)
    fetches = []

    def fetch_cblock(location):
        fetches.append(location)
        return counting

    matches = InlineDeduper(index, fetch_cblock).find_matches(incoming)
    return matches, len(fetches), counting.sliced, index


def futile_anchors(stored):
    """32 single sectors of ``stored``, each followed by one that is
    not: every anchor verifies and extends nowhere."""
    return b"".join(
        cut(stored, 2 * k, 2 * k + 1) + bytes([0xE0, k]) * (SECTOR // 2)
        for k in range(32)
    )


def filler_shape(stored):
    """The generators' filler shape: each anchor agrees for three more
    sectors, then stops short of the 8-sector minimum."""
    return b"".join(
        cut(stored, 8 * k, 8 * k + 4) + unique_sectors(4, salt=50 + k)
        for k in range(8)
    )


def test_futile_anchor_costs_one_fetch_and_a_few_sector_compares():
    """32 anchors that verify but extend nowhere: one fetch and at most
    three sector compares each — and not a byte more when the cblock
    they point into is four times longer."""
    stored = unique_sectors(64, salt=31)
    incoming = futile_anchors(stored)
    matches, fetches, sliced, index = counted_run(stored, incoming, 1)
    assert matches == []
    assert index.hits == 32
    assert fetches == 32
    assert sliced <= 32 * 3 * SECTOR
    longer = stored + unique_sectors(192, salt=32)
    assert counted_run(longer, incoming, 1)[1:3] == (fetches, sliced)


def test_a_run_that_stops_short_of_a_match_skips_the_forward_walk():
    """The generators' filler shape: each anchor agrees for three more
    sectors, then stops short of the 8-sector minimum. One compare at
    the furthest sector a match would need settles it — the anchor, one
    sector behind, that one — where walking ahead took five more."""
    stored = unique_sectors(64, salt=38)
    matches, fetches, sliced, index = counted_run(
        stored, filler_shape(stored), 8
    )
    assert matches == []
    assert index.hits == fetches == 8
    assert sliced <= 8 * 3 * SECTOR


def test_real_run_costs_its_length_not_the_cblocks():
    """An exact-duplicate 64-sector chunk: one lookup hit, one fetch,
    bytes compared proportional to the run; a short run inside a long
    cblock is not charged for the cblock."""
    stored = unique_sectors(64, salt=33)
    matches, fetches, sliced, index = counted_run(stored, stored, 8)
    assert [(m.sector_start, m.sector_count) for m in matches] == [(0, 64)]
    assert (index.lookups, index.hits, fetches) == (1, 1, 1)
    assert sliced <= 3 * 64 * SECTOR
    long_cblock = unique_sectors(64, salt=34) + unique_sectors(192, salt=35)
    incoming = (unique_sectors(28, salt=36) + cut(long_cblock, 8, 17)
                + unique_sectors(27, salt=37))
    matches, fetches, sliced, _index = counted_run(long_cblock, incoming, 8)
    assert [(m.sector_start, m.sector_count) for m in matches] == [(28, 9)]
    assert fetches == 1  # the cursor jumps the run: sector 16 is never an anchor
    assert sliced <= 4 * 9 * SECTOR


# ----------------------------------------------------------------------
# The hash screen: counted fetches with the cblock's hashes attached


def test_with_hashes_futile_anchors_cost_no_fetch():
    """The two futile shapes above cost 0 fetches and 0 bytes sliced
    once the index entries carry their cblock's hashes."""
    for shape, stored, sample_every, hits in (
        (futile_anchors, unique_sectors(64, salt=31), 1, 32),
        (filler_shape, unique_sectors(64, salt=38), 8, 8),
    ):
        matches, fetches, sliced, index = counted_run(
            stored, shape(stored), sample_every, with_hashes=True
        )
        assert matches == []
        assert index.hits == hits
        assert (fetches, sliced) == (0, 0)


def test_with_hashes_a_real_run_costs_one_fetch():
    stored = unique_sectors(64, salt=33)
    matches, fetches, _sliced, index = counted_run(stored, stored, 8,
                                                   with_hashes=True)
    assert [(m.sector_start, m.sector_count) for m in matches] == [(0, 64)]
    assert (index.hits, fetches) == (1, 1)
    long_cblock = unique_sectors(64, salt=34) + unique_sectors(192, salt=35)
    incoming = (unique_sectors(28, salt=36) + cut(long_cblock, 8, 17)
                + unique_sectors(27, salt=37))
    matches, fetches, _sliced, _index = counted_run(long_cblock, incoming, 8,
                                                    with_hashes=True)
    assert [(m.sector_start, m.sector_count) for m in matches] == [(28, 9)]
    assert fetches == 1


def test_screen_and_fetch_counters():
    """Every anchor is either screened or fetched, and the screened
    ones never reach ``false_hash_hits``."""
    stored = unique_sectors(64, salt=39)
    store, index = {}, RecordingIndex()
    store_cblock(store, index, 1, stored, 8, with_hashes=True)
    deduper = make_deduper(store, index)
    incoming = filler_shape(stored) + stored
    matches = deduper.find_matches(incoming)
    assert [(m.sector_start, m.sector_count) for m in matches] == [(64, 64)]
    assert (deduper.anchors_screened, deduper.anchors_fetched) == (8, 1)
    assert deduper.false_hash_hits == 0


def test_poisoned_hashes_never_yield_a_match():
    """Hashes that claim agreement where the bytes differ get the anchor
    fetched, and the byte compare rejects it; hashes that deny a real
    run cost the match, never return wrong bytes."""
    stored = unique_sectors(16, salt=60)
    for incoming in (
        unique_sectors(16, salt=61),  # nothing in common
        cut(stored, 0, 4) + unique_sectors(12, salt=62),  # a short run
    ):
        claim = sector_hash_vector(incoming)
        store, index = {1: stored}, RecordingIndex()
        for sector in range(0, 16, 8):
            index.record(sector_hash(cut(incoming, sector, sector + 1)),
                         DedupLocation(1, 0, len(stored), sector, claim))
        deduper = make_deduper(store, index)
        assert deduper.find_matches(incoming) == []
        assert deduper.anchors_fetched == index.hits > 0
        assert deduper.anchors_screened == 0
    denial = sector_hash_vector(unique_sectors(16, salt=63))
    store, index = {1: stored}, RecordingIndex()
    index.record(sector_hash(cut(stored, 0, 1)),
                 DedupLocation(1, 0, len(stored), 0, denial))
    deduper = make_deduper(store, index)
    assert deduper.find_matches(stored) == []
    assert (deduper.anchors_screened, deduper.anchors_fetched) == (1, 0)
