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

Allocation discipline: encode gathers through the GF(256) full product
table into per-stripe scratch buffers owned by the codec, so
steady-state encoding allocates nothing. ``encode_stripes`` is the
batched entry point the segio flush path uses — it takes a (k, L)
uint8 matrix view of the payload and returns an (m, L) parity view
without ever materializing per-shard byte strings. ``encode_reference``
preserves the seed per-row implementation as the correctness oracle.
"""

import numpy as np

from repro.erasure.gf256 import GF256
from repro.errors import UncorrectableError
from repro.perf import PERF


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
        # Per-stripe scratch, lazily sized to the shard length and then
        # reused: one gather buffer plus the parity accumulators.
        self._scratch = np.empty(0, dtype=np.uint8)
        self._parity_buffer = np.empty((parity_shards, 0), dtype=np.uint8)

    def _buffers(self, length):
        if self._scratch.shape[0] != length:
            self._scratch = np.empty(length, dtype=np.uint8)
            self._parity_buffer = np.empty(
                (self.parity_shards, length), dtype=np.uint8
            )
        return self._scratch, self._parity_buffer

    def _encode_arrays(self, arrays, length):
        """Parity for k uint8 arrays; returns the codec-owned (m, L) buffer."""
        scratch, parity = self._buffers(length)
        table = GF256.MUL_TABLE
        for index, row in enumerate(self._parity_rows):
            out = parity[index]
            # Rows 0/1 of the product table are zero/identity, so the
            # first term is always a plain gather straight into ``out``.
            np.take(table[row[0]], arrays[0], out=out)
            for coefficient, array in zip(row[1:], arrays[1:]):
                GF256.addmul_array(out, array, coefficient, scratch=scratch)
        return parity

    def encode(self, shards):
        """Compute parity for ``k`` equal-length data shards.

        Returns a list of ``m`` parity shards as bytes.
        """
        self._check_data_shards(shards)
        length = len(shards[0])
        with PERF.timer("rs-encode"):
            arrays = [np.frombuffer(shard, dtype=np.uint8) for shard in shards]
            parity = self._encode_arrays(arrays, length)
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
        with PERF.timer("rs-encode"):
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

    def reconstruct(self, shards):
        """Fill in missing shards. ``shards`` has k+m entries, None = lost.

        Returns the complete list (data + parity), all as bytes. Raises
        :class:`UncorrectableError` if more than ``m`` shards are
        missing.
        """
        if len(shards) != self.total_shards:
            raise ValueError(
                "expected %d shard slots, got %d" % (self.total_shards, len(shards))
            )
        present = [index for index, shard in enumerate(shards) if shard is not None]
        missing = [index for index, shard in enumerate(shards) if shard is None]
        if not missing:
            return [bytes(shard) for shard in shards]
        if len(missing) > self.parity_shards:
            raise UncorrectableError(
                "lost %d shards, code tolerates %d" % (len(missing), self.parity_shards)
            )
        lengths = {len(shards[index]) for index in present}
        if len(lengths) != 1:
            raise ValueError("present shards must all be the same length")
        length = lengths.pop()
        # Rebuild only what was lost, from any k surviving rows; the
        # present shards pass through.
        chosen = present[: self.data_shards]
        if len(chosen) < self.data_shards:
            raise UncorrectableError(
                "only %d shards survive, need %d" % (len(chosen), self.data_shards)
            )
        with PERF.timer("rs-decode"):
            rows = self._decode_rows_for(chosen, missing)
            survivor_arrays = [
                np.frombuffer(shards[index], dtype=np.uint8) for index in chosen
            ]
            scratch, _parity = self._buffers(length)
            result = list(shards)
            for index, row in zip(missing, rows):
                accumulator = np.zeros(length, dtype=np.uint8)
                for coefficient, array in zip(row, survivor_arrays):
                    GF256.addmul_array(
                        accumulator, array, coefficient, scratch=scratch
                    )
                result[index] = accumulator.tobytes()
        return [bytes(shard) for shard in result]

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
