"""Systematic Reed–Solomon codec over GF(256).

Purity uses 7+2 encoding: each segment stripes 7 data shards and 2
parity shards across a write group of drives, tolerating any two drive
losses (Section 4.2). The codec is general in (k, m) with k + m <= 255,
so benchmarks can also explore other geometries.

Construction: start from a (k+m) x k Vandermonde matrix, normalize the
top k x k block to the identity (so encoding is systematic — data
shards pass through unchanged), and keep the bottom m rows as the
parity-generating matrix. Reconstruction inverts the square submatrix
of surviving rows.

Allocation discipline: encode accumulates into an (m, L) parity buffer
owned by the codec and reused across calls; what it allocates per call
is what ``bytes.translate`` must — one ``bytes`` form per data shard
that is not ``bytes`` already, and one product per non-trivial
coefficient (see :mod:`repro.erasure.gf256`). ``encode_stripes`` is the
batched entry point the segio flush path uses — it takes a (k, L)
uint8 matrix view of the payload and returns the (m, L) parity buffer.
``encode_reference`` preserves the seed per-row implementation as the
correctness oracle.

Decode rebuilds only what it is asked for: ``reconstruct`` fills every
missing slot by default, or just the ``targets`` named — the segment
reader wants one shard of a stripe it read exactly ``k`` others of, and
pays ``k`` multiply-accumulates for it, not ``k`` per empty slot.
Surviving shards pass through as the objects they came in as.
"""

import numpy as np

from repro.erasure.gf256 import GF256
from repro.errors import UncorrectableError


def _vandermonde(rows, cols):
    return [[GF256.pow(row, col) for col in range(cols)] for row in range(rows)]


def _systematic_matrix(k, m):
    vandermonde = _vandermonde(k + m, k)
    top = [row[:] for row in vandermonde[:k]]
    top_inverse = GF256.matinv(top)
    return GF256.matmul(vandermonde, top_inverse)


class ReedSolomon:
    """Encode/decode fixed-size shard stripes with k data + m parity."""

    def __init__(self, data_shards, parity_shards):
        if data_shards <= 0 or parity_shards <= 0:
            raise ValueError("shard counts must be positive")
        if data_shards + parity_shards > 255:
            raise ValueError("k + m must be <= 255 for GF(256)")
        self.data_shards = data_shards
        self.parity_shards = parity_shards
        self.total_shards = data_shards + parity_shards
        matrix = _systematic_matrix(data_shards, parity_shards)
        self._matrix = matrix
        self._parity_rows = matrix[data_shards:]
        self._decode_rows = {}  # missing shard indices -> decode rows
        # The parity accumulators, lazily sized to the shard length and
        # then reused.
        self._parity_buffer = np.empty((parity_shards, 0), dtype=np.uint8)

    def _encode_arrays(self, arrays, length):
        """Parity for k uint8 buffers; returns the codec-owned (m, L) buffer."""
        if self._parity_buffer.shape[1] != length:
            self._parity_buffer = np.empty(
                (self.parity_shards, length), dtype=np.uint8
            )
        parity = self._parity_buffer
        # Every parity row multiplies every shard: convert each once.
        arrays = [GF256.as_bytes(array) for array in arrays]
        for out, row in zip(parity, self._parity_rows):
            out.fill(0)
            for coefficient, array in zip(row, arrays):
                GF256.addmul_array(out, array, coefficient)
        return parity

    def encode(self, shards):
        """Compute parity for ``k`` equal-length data shards.

        Returns a list of ``m`` parity shards as bytes.
        """
        self._check_data_shards(shards)
        length = len(shards[0])
        parity = self._encode_arrays(shards, length)
        return [row.tobytes() for row in parity]

    def encode_stripes(self, data_matrix):
        """Batched encode: (k, L) uint8 matrix in, (m, L) parity out.

        The input rows are the data shards (a zero-copy reshape of a
        segio payload works directly). The returned array is the
        codec's reusable parity buffer — consume it (copy/``tobytes``)
        before the next encode call.
        """
        matrix = np.asarray(data_matrix, dtype=np.uint8)
        if matrix.ndim != 2 or matrix.shape[0] != self.data_shards:
            raise ValueError(
                "expected a (%d, L) data matrix, got shape %r"
                % (self.data_shards, getattr(matrix, "shape", None))
            )
        return self._encode_arrays(list(matrix), matrix.shape[1])

    def encode_reference(self, shards):
        """Seed implementation (allocating exp/log kernels): the oracle."""
        self._check_data_shards(shards)
        length = len(shards[0])
        arrays = [np.frombuffer(shard, dtype=np.uint8) for shard in shards]
        parity = []
        for row in self._parity_rows:
            accumulator = np.zeros(length, dtype=np.uint8)
            for coefficient, array in zip(row, arrays):
                GF256.addmul_array_reference(accumulator, array, coefficient)
            parity.append(accumulator.tobytes())
        return parity

    def _check_data_shards(self, shards):
        if len(shards) != self.data_shards:
            raise ValueError(
                "expected %d data shards, got %d" % (self.data_shards, len(shards))
            )
        lengths = {len(shard) for shard in shards}
        if len(lengths) != 1:
            raise ValueError("data shards must all be the same length")

    def reconstruct(self, shards, targets=None):
        """Fill in missing shards. ``shards`` has k+m entries, None = lost.

        Returns the complete list (data + parity): rebuilt shards as
        bytes, surviving ones as the objects passed in. With ``targets``
        (indices of missing shards) only those are rebuilt and the other
        empty slots stay None. Raises :class:`UncorrectableError` if
        more than ``m`` shards are missing.
        """
        if len(shards) != self.total_shards:
            raise ValueError(
                "expected %d shard slots, got %d" % (self.total_shards, len(shards))
            )
        present = [index for index, shard in enumerate(shards) if shard is not None]
        missing = [index for index, shard in enumerate(shards) if shard is None]
        result = list(shards)
        if not missing:
            return result
        if len(missing) > self.parity_shards:
            raise UncorrectableError(
                "lost %d shards, code tolerates %d" % (len(missing), self.parity_shards)
            )
        lengths = {len(shards[index]) for index in present}
        if len(lengths) != 1:
            raise ValueError("present shards must all be the same length")
        length = lengths.pop()
        # Rebuild from any k surviving rows; the present shards pass
        # through.
        chosen = present[: self.data_shards]
        if len(chosen) < self.data_shards:
            raise UncorrectableError(
                "only %d shards survive, need %d" % (len(chosen), self.data_shards)
            )
        rows = self._decode_rows_for(chosen, missing)
        # A survivor may feed several rebuilt shards: convert once.
        survivors = [GF256.as_bytes(shards[index]) for index in chosen]
        for index, row in zip(missing, rows):
            if targets is None or index in targets:
                result[index] = self._rebuild_shard(row, survivors, length)
        return result

    @staticmethod
    def _rebuild_shard(row, survivors, length):
        """One lost shard: its decode ``row`` applied to the survivors."""
        accumulator = np.zeros(length, dtype=np.uint8)
        for coefficient, shard in zip(row, survivors):
            GF256.addmul_array(accumulator, shard, coefficient)
        return accumulator.tobytes()

    def _decode_rows_for(self, chosen, missing):
        """Rows that rebuild each ``missing`` shard from the ``chosen`` ones.

        ``missing`` fixes ``chosen``, so the cache holds at most one entry
        per erasure pattern: C(k+m, 1) + ... + C(k+m, m).
        """
        pattern = tuple(missing)
        rows = self._decode_rows.get(pattern)
        if rows is None:
            inverse = GF256.matinv([self._matrix[index] for index in chosen])
            lost_rows = [self._matrix[index] for index in missing]
            # matrix[i] . inverse is inverse[i] itself for a data shard.
            rows = self._decode_rows[pattern] = GF256.matmul(lost_rows, inverse)
        return rows

    def verify(self, shards):
        """True if a complete stripe's parity matches its data."""
        if any(shard is None for shard in shards):
            raise ValueError("verify requires a complete stripe")
        data = [bytes(shard) for shard in shards[: self.data_shards]]
        expected_parity = self.encode(data)
        actual_parity = [bytes(shard) for shard in shards[self.data_shards:]]
        return expected_parity == actual_parity
