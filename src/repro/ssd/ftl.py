"""Flash-translation-layer behaviour model.

Sections 2.1 and 3.3 of the paper describe FTLs as the source of the
performance quirks Purity designs around: random writes trigger internal
garbage collection (write amplification and multi-millisecond stalls),
while large sequential writes keep the FTL on its fast path. This model
tracks the sequentiality of the host write stream and charges write
amplification and stall probability accordingly.

The model is deliberately behavioural, not mechanistic: it produces the
*incentives* the paper documents (sequential writes good, random writes
harmful, stalls visible to concurrent readers) without simulating a
vendor mapping table.
"""

from repro.units import MILLISECOND

#: Write amplification of a fully sequential and a fully random stream.
MIN_WRITE_AMP = 1.0
MAX_WRITE_AMP = 4.0
#: Chance of a GC stall per operation at ``MAX_WRITE_AMP``.
STALL_PROBABILITY_AT_MAX = 0.08
#: How long one FTL GC stall holds the device.
STALL_TIME = 8 * MILLISECOND
#: Weight of each new write in the sequentiality moving average.
SMOOTHING = 0.05


class FlashTranslationLayer:
    """Tracks host write sequentiality and derives WA and stall risk.

    ``sequentiality`` is an exponentially weighted score in [0, 1]; 1.0
    means every write continued exactly where the previous one in its
    region ended. Write amplification interpolates between
    ``MIN_WRITE_AMP`` (fully sequential) and ``MAX_WRITE_AMP`` (fully
    random). The probability that an operation incurs an FTL garbage
    collection stall grows with write amplification.
    """

    #: Regions used to detect per-stream sequential writes; Purity's
    #: segments land in different regions but are sequential within one.
    REGION_BYTES = 8 * 1024 * 1024

    def __init__(self, geometry):
        self.geometry = geometry
        self.sequentiality = 1.0
        self._region_cursors = {}
        self.host_bytes_written = 0
        self.flash_bytes_written = 0
        self.gc_stalls = 0

    def note_write(self, offset, nbytes):
        """Record a host write; returns the flash bytes actually programmed.

        Updates the sequentiality score: a write that continues its
        region's cursor counts as sequential, anything else as random.
        """
        region = offset // self.REGION_BYTES
        cursor = self._region_cursors.get(region)
        is_sequential = cursor is None or cursor == offset
        self._region_cursors[region] = offset + nbytes
        if len(self._region_cursors) > 1024:
            # Bound memory: forget the oldest half of the cursor map.
            for key in list(self._region_cursors)[:512]:
                del self._region_cursors[key]
        sample = 1.0 if is_sequential else 0.0
        self.sequentiality += SMOOTHING * (sample - self.sequentiality)
        amplification = self.write_amplification()
        flash_bytes = int(nbytes * amplification)
        self.host_bytes_written += nbytes
        self.flash_bytes_written += flash_bytes
        return flash_bytes

    def note_discard(self, offset, nbytes):
        """Record a TRIM; frees the region cursor so reuse is sequential."""
        first = offset // self.REGION_BYTES
        last = (offset + max(nbytes, 1) - 1) // self.REGION_BYTES
        for region in range(first, last + 1):
            self._region_cursors.pop(region, None)

    def write_amplification(self):
        """Current write amplification factor given sequentiality."""
        span = MAX_WRITE_AMP - MIN_WRITE_AMP
        return MIN_WRITE_AMP + span * (1.0 - self.sequentiality)

    def stall_probability(self):
        """Chance that an operation hits an FTL GC stall right now."""
        span = MAX_WRITE_AMP - MIN_WRITE_AMP
        fraction = (self.write_amplification() - MIN_WRITE_AMP) / span
        return STALL_PROBABILITY_AT_MAX * fraction

    def maybe_stall(self, stream):
        """Sample a GC stall; returns stall seconds (0.0 for no stall)."""
        if stream.random() < self.stall_probability():
            self.gc_stalls += 1
            return STALL_TIME
        return 0.0
