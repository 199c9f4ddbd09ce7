"""The boot region (paper Section 4.3).

A tiny, fixed-location slice of storage holding what recovery needs
before it can read anything else: the persisted frontier and
speculative sets, the allocator state, the locations of each relation's
persisted patches, and the WAL trim point. Everything else is
discovered by scanning frontier AU headers and replaying NVRAM.

The checkpoint is stored as one serialized blob, mirrored across
drives; the model charges a small latency per write and counts bytes so
the "< 1 % of writes" claim can be measured.
"""

from repro.errors import RecoveryError
from repro.units import MILLISECOND
from repro.wire import decode_value, encode_value


class BootRegion:
    """Mirrored checkpoint store for bootstrap metadata."""

    #: Charged per checkpoint write: a few small mirrored writes.
    WRITE_LATENCY = 2 * MILLISECOND
    READ_LATENCY = 1 * MILLISECOND

    def __init__(self, clock):
        self.clock = clock
        self._blob = None
        self.writes = 0
        self.bytes_written = 0

    def write_checkpoint(self, checkpoint):
        """Persist a checkpoint dict; returns simulated latency.

        The checkpoint must be a dict of primitive-encodable values;
        serializing it here guarantees recovery never depends on live
        Python object graphs.
        """
        items = tuple(sorted(checkpoint.items()))
        flat = tuple(item for pair in items for item in pair)
        blob = encode_value(flat)
        self._blob = blob
        self.writes += 1
        self.bytes_written += len(blob)
        return self.WRITE_LATENCY

    def read_checkpoint(self):
        """Load the latest checkpoint; returns (dict, latency)."""
        if self._blob is None:
            raise RecoveryError("boot region is empty (array never checkpointed)")
        flat, _end = decode_value(self._blob)
        if len(flat) % 2:
            raise RecoveryError("corrupt boot region checkpoint")
        checkpoint = {
            flat[index]: flat[index + 1] for index in range(0, len(flat), 2)
        }
        return checkpoint, self.READ_LATENCY

    @property
    def is_empty(self):
        return self._blob is None
