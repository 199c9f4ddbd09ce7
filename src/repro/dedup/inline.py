"""Inline deduplication: lookup, verify, anchor-extend.

For an incoming write, every sector hash is looked up (only sampled
hashes were recorded). A hit is *verified* by comparing the actual
bytes — collisions cost one block compare, never correctness. A
verified sector becomes an anchor: the match is extended forward and
backward, so duplicate runs of at least ``min_run_sectors`` (8 by
default = 4 KiB) are detected regardless of how they align with the
sampling grid.

Hot-path shape: a write's sectors are hashed in one vectorised pass and
the index is probed for the next sector it holds, so a miss costs two
dict membership tests. The candidate cblock is fetched once per anchor
and every compare is a ``bytes`` slice against a ``bytes`` slice
(memcmp; ``memoryview.__eq__`` walks element by element). Extension
gallops — 1, 2, 4, ... sectors, then halves inside the first chunk that
differs — and the forward walk is skipped when the one sector a match
would need ahead of the anchor differs, so an anchor that goes nowhere
costs a few sector compares and a real run costs O(run), never
O(cblock). The per-sector eager matcher it
replaced survives as :meth:`InlineDeduper.find_matches_reference`, the
oracle the tests hold it to.
"""

from dataclasses import dataclass

from repro.dedup.hashing import sector_hashes
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


def _agreeing_sectors(stored, stored_at, incoming, incoming_at, limit, forward):
    """How many whole sectors agree walking away from an anchor.

    ``stored_at``/``incoming_at`` are the byte offsets the walk starts
    from (the anchor's end when ``forward``, its start otherwise); at
    most ``limit`` sectors are looked at. Galloping first-mismatch
    search over ``bytes`` slices, so the bytes sliced and compared are
    proportional to the answer, not to ``limit``.
    """
    limit *= SECTOR
    agreed = 0  # bytes known to agree
    size = SECTOR
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
            # its last sector again, and halve from here on.
            galloping = False
            limit = agreed + size - SECTOR
            size = size // (2 * SECTOR) * SECTOR
    return agreed // SECTOR


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
        self.false_hash_hits = 0
        self.matches_found = 0

    def find_matches(self, data):
        """Duplicate runs in ``data``; non-overlapping, sorted, verified.

        Every sector is hashed in one vectorised pass, then
        :meth:`DedupIndex.probe` moves the cursor straight to the next
        sector whose hash the index holds, counting the misses it
        passes as per-sector lookups would. Each hit is an anchor:
        verified and extended as below, after which the cursor jumps
        past an emitted match or steps one sector on. Matches, counters
        and the sequence of hashes asked are those of
        :meth:`find_matches_reference`, so the anchors — one
        ``fetch_cblock`` each — are the ones per-sector lookups find.
        Nothing here keeps a view of ``data`` past the call.
        """
        hashes = sector_hashes(data)
        total = len(hashes)
        probe = self.index.probe
        incoming = None  # the write as bytes, materialized at the first hit
        matches = []
        claimed_until = 0  # first sector not covered by an emitted match
        cursor = 0
        while cursor < total:
            cursor, location = probe(hashes, cursor)
            if location is None:
                break
            if incoming is None:
                incoming = bytes(data)
            run = self._verified_run(incoming, cursor, claimed_until, location)
            if run is None:
                self.false_hash_hits += 1
                cursor += 1
                continue
            run_start, run_end = run
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
            else:
                cursor += 1
        return matches

    def _verified_run(self, incoming, anchor, floor, location):
        """[start, end) of the byte-verified run through sector ``anchor``,
        or None when the anchor itself does not match (hash collision or
        stale location). A run that cannot reach ``min_run_sectors`` may
        come back cut short: it is discarded either way. ``floor`` caps
        the backward walk at the end of the previous emitted match; the
        cblock is fetched exactly once.
        """
        sector_index = location.sector_index
        stored = self.fetch_cblock(location) if sector_index >= 0 else None
        at = anchor * SECTOR
        stored_at = sector_index * SECTOR
        if (
            stored is None
            or stored_at + SECTOR > len(stored)
            or stored[stored_at : stored_at + SECTOR] != incoming[at : at + SECTOR]
        ):
            return None
        behind = _agreeing_sectors(
            stored, stored_at, incoming, at,
            min(anchor - floor, sector_index), forward=False,
        )
        limit = min(len(incoming) // SECTOR - anchor,
                    len(stored) // SECTOR - sector_index) - 1
        # The run is a match only if it reaches ``need`` sectors ahead,
        # so one compare there settles most futile anchors without the
        # forward walk; what such an anchor returns is merely too short.
        need = self.min_run_sectors - 1 - behind
        if need > 0:
            near = at + need * SECTOR
            stored_near = stored_at + need * SECTOR
            if need > limit or (stored[stored_near : stored_near + SECTOR]
                                != incoming[near : near + SECTOR]):
                return anchor - behind, anchor + 1
        ahead = _agreeing_sectors(
            stored, stored_at + SECTOR, incoming, at + SECTOR, limit,
            forward=True,
        )
        return anchor - behind, anchor + 1 + ahead

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
