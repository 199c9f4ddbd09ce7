"""Inline deduplication: lookup, screen, verify, anchor-extend.

For an incoming write, every sector hash is looked up (only sampled
hashes were recorded). A hit is *verified* by comparing the actual
bytes — collisions cost one block compare, never correctness. A
verified sector becomes an anchor: the match is extended forward and
backward, so duplicate runs of at least ``min_run_sectors`` (8 by
default = 4 KiB) are detected regardless of how they align with the
sampling grid.

Hot-path shape: a write's sectors are hashed in one vectorised pass and
the index is probed for the next sector it holds, so a miss costs two
dict membership tests. A location carries its cblock's per-sector
hashes, so an anchor is first walked on hashes exactly as it would be
on bytes; one whose hash run cannot reach the minimum is dropped
without fetching its cblock. A surviving anchor's cblock is fetched
once and every compare is a ``bytes`` slice against a ``bytes`` slice
(memcmp; ``memoryview.__eq__`` walks element by element). Extension
gallops — 1, 2, 4, ... sectors, then halves inside the first chunk that
differs — and the forward walk is skipped when the one sector a match
would need ahead of the anchor differs, so an anchor that goes nowhere
costs a few compares and a real run costs O(run), never O(cblock). The
per-sector eager matcher it replaced survives as
:meth:`InlineDeduper.find_matches_reference`, the oracle the tests hold
it to.
"""

from dataclasses import dataclass

from repro.dedup.hashing import (HASH_BYTES, hash_values, sector_hash_vector,
                                 sector_hashes)
from repro.units import SECTOR


@dataclass(frozen=True)
class DedupMatch:
    """One deduplicated run within an incoming write.

    ``sector_start``/``sector_count`` address the incoming data;
    ``location`` is the physical home of the run's first sector.
    """

    sector_start: int
    sector_count: int
    location: object

    @property
    def byte_start(self):
        return self.sector_start * SECTOR

    @property
    def byte_length(self):
        return self.sector_count * SECTOR


def _agreeing_sectors(stored, stored_at, incoming, incoming_at, limit,
                      forward, unit=SECTOR):
    """How many whole items (sectors, or their ``unit``-byte hashes)
    agree walking away from an anchor.

    ``stored_at``/``incoming_at`` are the byte offsets the walk starts
    from (the anchor's end when ``forward``, its start otherwise); at
    most ``limit`` items are looked at. Galloping first-mismatch
    search over ``bytes`` slices, so the bytes sliced and compared are
    proportional to the answer, not to ``limit``.
    """
    limit *= unit
    agreed = 0  # bytes known to agree
    size = unit
    galloping = True
    while agreed < limit:
        if size > limit - agreed:
            size = limit - agreed
        near = agreed if forward else -agreed - size
        a = stored_at + near
        b = incoming_at + near
        if stored[a : a + size] == incoming[b : b + size]:
            agreed += size
            if galloping:
                size += size
        else:
            # The first mismatch is inside this chunk: never look past
            # its last item again, and halve from here on.
            galloping = False
            limit = agreed + size - unit
            size = size // (2 * unit) * unit
    return agreed // unit


def _agree(stored, stored_item, incoming, item, unit):
    """Whether item ``stored_item`` of ``stored`` equals item ``item``
    of ``incoming``, ``unit`` bytes each; an item past either end never
    does."""
    at = stored_item * unit
    near = item * unit
    if at < 0 or at + unit > len(stored) or near + unit > len(incoming):
        return False
    return stored[at : at + unit] == incoming[near : near + unit]


class InlineDeduper:
    """Finds duplicate runs in incoming writes against the dedup index."""

    def __init__(self, index, fetch_cblock, min_run_sectors=8):
        """``fetch_cblock(location) -> bytes or None`` returns the
        logical bytes of the stored cblock a :class:`DedupLocation`
        points into (None when it is no longer readable, e.g. its
        segment was collected). It is never asked about a location
        with a negative ``sector_index``.
        """
        if min_run_sectors < 1:
            raise ValueError("min_run_sectors must be positive")
        self.index = index
        self.fetch_cblock = fetch_cblock
        self.min_run_sectors = min_run_sectors
        #: Anchors whose cblock was fetched to verify them.
        self.anchors_fetched = 0
        #: Anchors ruled out on their cblock's hashes, never fetched.
        self.anchors_screened = 0
        #: Fetched anchors whose sector bytes differ (a hash collision, a
        #: stale location), plus unfetchable ones of hash-less locations.
        self.false_hash_hits = 0
        self.matches_found = 0

    def find_matches(self, data, vector=None):
        """Duplicate runs in ``data``; non-overlapping, sorted, verified.

        ``vector`` is ``sector_hash_vector(data)`` (hashed here if
        omitted). :meth:`DedupIndex.probe` moves the cursor straight to
        the next sector whose hash the index holds, counting the misses
        it passes as per-sector lookups would. Each hit is an anchor:
        screened, then fetched, verified and extended, after which the
        cursor jumps past an emitted match or steps one sector on.
        Matches, ``matches_found`` and the hashes asked are those of
        :meth:`find_matches_reference`. Nothing here keeps a view of
        ``data`` past the call.
        """
        if vector is None:
            vector = sector_hash_vector(data)
        hashes = hash_values(vector)
        total = len(hashes)
        probe = self.index.probe
        incoming = None  # the write as bytes, materialized at the first fetch
        matches = []
        claimed_until = 0  # first sector not covered by an emitted match
        cursor = 0
        while cursor < total:
            cursor, location = probe(hashes, cursor)
            if location is None:
                break
            if self._screened(location, vector, cursor, claimed_until):
                self.anchors_screened += 1
                cursor += 1
                continue
            sector_index = location.sector_index
            stored = None
            if sector_index >= 0:
                self.anchors_fetched += 1
                stored = self.fetch_cblock(location)
            if stored is not None and incoming is None:
                incoming = bytes(data)
            if stored is None or not _agree(stored, sector_index, incoming,
                                            cursor, SECTOR):
                self.false_hash_hits += 1
                cursor += 1
                continue
            behind = self._behind(stored, incoming, cursor, claimed_until,
                                  sector_index, SECTOR)
            if behind is not None:
                ahead = _agreeing_sectors(
                    stored, (sector_index + 1) * SECTOR,
                    incoming, (cursor + 1) * SECTOR,
                    min(total - cursor, len(stored) // SECTOR - sector_index) - 1,
                    forward=True,
                )
                run_start, run_end = cursor - behind, cursor + 1 + ahead
                if run_end - run_start >= self.min_run_sectors:
                    matches.append(
                        DedupMatch(
                            sector_start=run_start,
                            sector_count=run_end - run_start,
                            location=location.shifted(run_start - cursor),
                        )
                    )
                    self.matches_found += 1
                    claimed_until = run_end
                    cursor = run_end
                    continue
            cursor += 1
        return matches

    def _behind(self, stored, incoming, anchor, floor, sector_index, unit):
        """Items (sectors, or their ``unit``-byte hashes) agreeing
        behind an agreeing anchor, back to ``floor`` (the previous
        match's end) or the cblock's start; None when the run cannot
        reach ``min_run_sectors``, settled by one compare at the item a
        match would need ahead.
        """
        behind = _agreeing_sectors(
            stored, sector_index * unit, incoming, anchor * unit,
            min(anchor - floor, sector_index), forward=False, unit=unit,
        )
        need = self.min_run_sectors - 1 - behind
        if need > 0 and not _agree(stored, sector_index + need, incoming,
                                   anchor + need, unit):
            return None
        return behind

    def _screened(self, location, vector, anchor, floor):
        """Whether the byte walk, run over ``location.cblock_hashes``
        against the incoming ``vector``, already fails. Equal bytes give
        equal hashes, so the hash run is never shorter than the byte run
        and this drops only futile anchors; a wrong vector could cost a
        match, never return wrong bytes. Hash-less locations pass.
        """
        known = location.cblock_hashes
        if known is None:
            return False
        sector_index = location.sector_index
        return not _agree(known, sector_index, vector, anchor, HASH_BYTES) or (
            self._behind(known, vector, anchor, floor, sector_index,
                         HASH_BYTES) is None
        )

    def find_matches_reference(self, data):
        """The eager per-sector matcher: oracle for :meth:`find_matches`.

        Hashes every sector up front and verifies one sector — one
        ``fetch_cblock`` — at a time. Same matches, counters and
        ``index.lookup`` sequence as the live path; only tests call it.
        """
        view = memoryview(data)
        hashes = sector_hashes(view)
        total = len(hashes)

        def verified(location, sector):
            if location.sector_index < 0:
                return False
            stored = self.fetch_cblock(location)
            start = location.sector_index * SECTOR
            return (
                stored is not None
                and start + SECTOR <= len(stored)
                and stored[start : start + SECTOR]
                == view[sector * SECTOR : (sector + 1) * SECTOR]
            )

        matches = []
        claimed_until = 0
        cursor = 0
        while cursor < total:
            location = self.index.lookup(hashes[cursor])
            if location is None:
                cursor += 1
                continue
            if not verified(location, cursor):
                self.false_hash_hits += 1
                cursor += 1
                continue
            start = cursor
            while (
                start > claimed_until
                and location.sector_index - (cursor - start) > 0
                and verified(location.shifted(start - 1 - cursor), start - 1)
            ):
                start -= 1
            end = cursor + 1
            while end < total and verified(location.shifted(end - cursor), end):
                end += 1
            if end - start >= self.min_run_sectors:
                matches.append(
                    DedupMatch(
                        sector_start=start,
                        sector_count=end - start,
                        location=location.shifted(start - cursor),
                    )
                )
                self.matches_found += 1
                claimed_until = end
                cursor = end
            else:
                cursor += 1
        return matches
