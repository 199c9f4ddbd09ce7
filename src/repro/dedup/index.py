"""The in-memory deduplication hash index.

The index maps sampled 64-bit sector hashes to the physical location of
the sector (a stored cblock plus a sector offset within it). It holds
two tiers, matching the paper's inline heuristics: a bounded *recent*
tier of newly written data, and a *frequent* tier that hashes graduate
into after repeated hits. Inline dedup consults both; the background
garbage-collection pass (Section 4.7) catches what the bounded tiers
miss.
"""

from collections import OrderedDict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class DedupLocation:
    """A sector's physical home: a cblock in a segment, plus a skew.

    ``segment_id``/``payload_offset``/``stored_length`` identify the
    cblock blob; ``sector_index`` is the sector's position within the
    cblock's *logical* (decompressed) bytes. ``cblock_hashes``, not part
    of its identity, is the cblock's ``sector_hash_vector`` (shared by
    every entry into the cblock), or None when unknown.
    """

    segment_id: int
    payload_offset: int
    stored_length: int
    sector_index: int
    cblock_hashes: bytes = field(default=None, compare=False, repr=False)

    def shifted(self, delta):
        """The same cblock, ``delta`` sectors away."""
        return DedupLocation(
            self.segment_id,
            self.payload_offset,
            self.stored_length,
            self.sector_index + delta,
            self.cblock_hashes,
        )


class DedupIndex:
    """Two-tier bounded hash index: recent + frequent."""

    def __init__(self, recent_capacity=65536, frequent_capacity=65536,
                 promote_hits=2):
        self.recent_capacity = recent_capacity
        self.frequent_capacity = frequent_capacity
        self.promote_hits = promote_hits
        self._recent = OrderedDict()  # hash -> DedupLocation
        self._frequent = OrderedDict()  # hash -> DedupLocation
        self._hit_counts = {}
        self.lookups = 0
        self.hits = 0
        self.records = 0

    def __len__(self):
        return len(self._recent) + len(self._frequent)

    def record(self, sector_hash_value, location):
        """Remember a sampled hash for recently written data."""
        self.records += 1
        self._recent[sector_hash_value] = location
        self._recent.move_to_end(sector_hash_value)
        while len(self._recent) > self.recent_capacity:
            evicted, _location = self._recent.popitem(last=False)
            # The count goes with the entry: a hash recorded again later
            # earns promotion from scratch, and the dict stays bounded.
            self._hit_counts.pop(evicted, None)

    def lookup(self, sector_hash_value):
        """Location for a hash, or None; promotes hot hashes."""
        self.lookups += 1
        return self._hit(sector_hash_value)

    def probe(self, hashes, start):
        """``lookup`` of ``hashes[start:]`` up to and including the first
        hit, in one call: (position of that hit, its location), or
        (``len(hashes)``, None) when every one misses.

        Each miss passed over counts in ``lookups`` as its own
        ``lookup`` would, and the hit gets ``lookup``'s bookkeeping
        unchanged (hit count, promotion, tier LRU). A miss changes
        nothing else, so asking each position in turn while both tiers
        stand still is exactly the per-position ``lookup`` sequence —
        including a hash that an earlier promotion evicted from the
        frequent tier, which is simply absent when its turn comes.
        """
        frequent = self._frequent
        recent = self._recent
        for position in range(start, len(hashes)):
            value = hashes[position]
            if value in frequent or value in recent:
                self.lookups += position - start + 1
                return position, self._hit(value)
        self.lookups += len(hashes) - start
        return len(hashes), None

    def _hit(self, sector_hash_value):
        """Hit bookkeeping for a hash, or None when no tier holds it."""
        location = self._frequent.get(sector_hash_value)
        if location is not None:
            self._frequent.move_to_end(sector_hash_value)
            self.hits += 1
            return location
        location = self._recent.get(sector_hash_value)
        if location is None:
            return None
        self.hits += 1
        count = self._hit_counts.get(sector_hash_value, 0) + 1
        self._hit_counts[sector_hash_value] = count
        if count >= self.promote_hits:
            # Frequently deduplicated data stays findable even after it
            # ages out of the recent tier.
            del self._recent[sector_hash_value]
            del self._hit_counts[sector_hash_value]
            self._frequent[sector_hash_value] = location
            while len(self._frequent) > self.frequent_capacity:
                self._frequent.popitem(last=False)
        return location

    def rewrite_segment(self, old_segment_id, relocate):
        """Update entries after GC moved a segment's cblocks.

        ``relocate(location) -> DedupLocation or None`` maps old
        locations to new ones; None drops the entry.
        """
        for tier in (self._recent, self._frequent):
            for key in list(tier):
                location = tier[key]
                if location.segment_id != old_segment_id:
                    continue
                replacement = relocate(location)
                if replacement is None:
                    del tier[key]
                    self._hit_counts.pop(key, None)
                else:
                    tier[key] = replacement

    @property
    def hit_rate(self):
        """Fraction of lookups that found a candidate."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups
