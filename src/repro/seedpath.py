"""Seed-path emulation: run the pipeline with pre-optimization kernels.

The hot-path optimizations (``bytes.translate`` GF(256) kernels, batched RS
encode into a codec-owned parity buffer, sampled record hashing, memoryview
write splitting, one-fetch galloping dedup-run extension) replaced the
seed implementations in place. This module patches the seed behaviours back
in, under a context manager, for two consumers:

* ``benchmarks/bench_hotpath.py`` measures seed-vs-optimized numbers
  with the *same* harness, so the recorded speedups compare identical
  workloads;
* the pipeline-equivalence test proves a mixed workload produces
  byte-identical reads and identical data-reduction stats either way.

The seed kernels themselves (``GF256.mul_array_reference``,
``ReedSolomon.encode_reference``,
``InlineDeduper.find_matches_reference``) stay in their home modules as
the bit-exactness oracles; this module only re-wires the pipeline to
them.
"""

from contextlib import contextmanager

import numpy as np

import repro.core.datapath as _datapath_module
from repro.core.datapath import DataPath
from repro.dedup.hashing import sector_hash
from repro.dedup.index import DedupLocation
from repro.dedup.inline import InlineDeduper
from repro.erasure.gf256 import GF256
from repro.erasure.reed_solomon import ReedSolomon
from repro.units import MAX_CBLOCK, SECTOR


def _as_array(buffer):
    """The seed kernels index with their operand: they need an ndarray."""
    if isinstance(buffer, np.ndarray):
        return buffer
    return np.frombuffer(buffer, dtype=np.uint8)


def _seed_mul_array(cls, array, scalar):
    return cls.mul_array_reference(_as_array(array), scalar)


def _seed_addmul_array(cls, accumulator, array, scalar):
    return cls.addmul_array_reference(accumulator, _as_array(array), scalar)


def _seed_encode(self, shards):
    return self.encode_reference(shards)


def _seed_encode_stripes(self, data_matrix):
    """Seed segio flush: per-shard byte strings + allocating encode."""
    matrix = np.asarray(data_matrix, dtype=np.uint8)
    shards = [matrix[index].tobytes() for index in range(matrix.shape[0])]
    parity = self.encode_reference(shards)
    return np.stack([np.frombuffer(row, dtype=np.uint8) for row in parity])


def _seed_split_write(offset, data, max_cblock=MAX_CBLOCK):
    """Seed splitter: each chunk is a copying bytes slice."""
    if offset % SECTOR:
        raise ValueError("write offset %d is not sector-aligned" % offset)
    if len(data) % SECTOR:
        raise ValueError("write length %d is not a sector multiple" % len(data))
    if max_cblock % SECTOR or max_cblock <= 0:
        raise ValueError("max_cblock must be a positive sector multiple")
    data = bytes(data)
    cursor = 0
    while cursor < len(data):
        chunk = data[cursor : cursor + max_cblock]
        yield offset + cursor, chunk
        cursor += len(chunk)


def _seed_sector_hashes(data):
    """Seed hashing: one copying bytes slice per sector."""
    data = bytes(data)
    if len(data) % SECTOR:
        raise ValueError("data length %d is not a sector multiple" % len(data))
    return [
        sector_hash(data[offset : offset + SECTOR])
        for offset in range(0, len(data), SECTOR)
    ]


def _seed_record_hashes(self, segment_id, payload_offset, stored_length, data):
    """Seed recording: hash every sector, keep every Nth digest."""
    hashes = _seed_sector_hashes(data)
    for sector, value in enumerate(hashes):
        if sector % self.config.dedup_sample_every == 0:
            self.dedup_index.record(
                value,
                DedupLocation(segment_id, payload_offset, stored_length, sector),
            )


@contextmanager
def seed_pipeline():
    """Patch the seed hot-path implementations back in, temporarily."""
    saved = {
        "mul_array": GF256.__dict__["mul_array"],
        "addmul_array": GF256.__dict__["addmul_array"],
        "encode": ReedSolomon.encode,
        "encode_stripes": ReedSolomon.encode_stripes,
        "split_write": _datapath_module.split_write,
        "record_hashes": DataPath._record_hashes,
        "find_matches": InlineDeduper.find_matches,
    }
    GF256.mul_array = classmethod(_seed_mul_array)
    GF256.addmul_array = classmethod(_seed_addmul_array)
    ReedSolomon.encode = _seed_encode
    ReedSolomon.encode_stripes = _seed_encode_stripes
    _datapath_module.split_write = _seed_split_write
    DataPath._record_hashes = _seed_record_hashes
    InlineDeduper.find_matches = InlineDeduper.find_matches_reference
    try:
        yield
    finally:
        GF256.mul_array = saved["mul_array"]
        GF256.addmul_array = saved["addmul_array"]
        ReedSolomon.encode = saved["encode"]
        ReedSolomon.encode_stripes = saved["encode_stripes"]
        _datapath_module.split_write = saved["split_write"]
        DataPath._record_hashes = saved["record_hashes"]
        InlineDeduper.find_matches = saved["find_matches"]
