"""Tests for sector hashing: the kernel's contract and its quality.

Quality is measured as collisions among *distinct* sectors: on every
data profile the benchmarks generate, and on adversarial families built
to hit the structure a multiply-and-add hash has (single-bit and
single-word differences, and top bits that cancel mod 2^64).
"""

import struct

import numpy as np
import pytest

from repro.core.config import ArrayConfig
from repro.dedup import hashing
from repro.dedup.hashing import (
    HASH_BITS,
    HASH_BYTES,
    sector_hash,
    sector_hash_vector,
    sector_hashes,
)
from repro.dedup.index import DedupIndex, DedupLocation
from repro.dedup.inline import InlineDeduper
from repro.sim.rand import RandomStream
from repro.units import SECTOR
from repro.workloads.datagen import PROFILES, DataGenerator, DataProfile

WORDS = SECTOR // 8


def random_sectors(count, seed=2015):
    return RandomStream(seed).randbytes(count * SECTOR)


def unpacked(vector):
    return memoryview(vector).cast("Q").tolist()


def test_hash_fits_in_64_bits():
    value = sector_hash(b"a" * SECTOR)
    assert 0 <= value < 2 ** HASH_BITS


def test_hash_is_deterministic():
    assert sector_hash(b"x" * SECTOR) == sector_hash(b"x" * SECTOR)


def test_different_sectors_differ():
    assert sector_hash(b"a" * SECTOR) != sector_hash(b"b" * SECTOR)


def test_sector_hashes_per_sector():
    data = b"a" * SECTOR + b"b" * SECTOR + b"a" * SECTOR
    hashes = sector_hashes(data)
    assert len(hashes) == 3
    assert hashes[0] == hashes[2]
    assert hashes[0] != hashes[1]


def test_sector_hashes_requires_alignment():
    with pytest.raises(ValueError):
        sector_hashes(b"short")
    with pytest.raises(ValueError):
        sector_hash_vector(b"a" * (SECTOR + 8))


def test_sector_hashes_accepts_memoryview_and_bytearray():
    data = random_sectors(9)
    expected = sector_hashes(data)
    assert sector_hashes(memoryview(data)) == expected
    assert sector_hashes(bytearray(data)) == expected
    for skew in range(1, 8):  # views that start off an 8-byte boundary
        padded = bytearray(skew) + bytearray(data) + bytearray(3)
        view = memoryview(padded)[skew : skew + len(data)]
        assert sector_hashes(view) == expected, skew
        assert unpacked(sector_hash_vector(view)) == expected, skew
        assert sector_hash(view[SECTOR : 2 * SECTOR]) == expected[1]


def test_full_pass_and_vector_match_per_sector_hashes():
    """One pass over a chunk gives each sector's own hash, and its
    packed vector slices per sector: a unique run's slice of the
    chunk's vector is that run's own vector."""
    for sectors in (0, 1, 7, 8, 9, 16, 63, 64, 65):
        data = random_sectors(sectors, seed=sectors)
        full = sector_hashes(data)
        assert full == [sector_hash(data[at : at + SECTOR])
                        for at in range(0, len(data), SECTOR)]
        vector = sector_hash_vector(data)
        assert len(vector) == HASH_BYTES * sectors
        assert unpacked(vector) == full
        for first, last in ((0, sectors), (sectors // 3, sectors - 1)):
            run = data[first * SECTOR : last * SECTOR]
            assert sector_hash_vector(run) \
                == vector[first * HASH_BYTES : last * HASH_BYTES]


def test_sampling_rate_matches_paper():
    # The sampling knob lives in config now; the paper records every
    # eighth sector's hash.
    assert ArrayConfig().dedup_sample_every == 8


# ----------------------------------------------------------------------
# The kernel's contract


def test_golden_value():
    """Pinned: a change to the kernel or its multipliers must be
    deliberate (it changes what every recorded index entry means)."""
    assert sector_hash(bytes(range(256)) * 2) == 0x2622EE39F7CD69F2
    assert sector_hash(bytes(SECTOR)) == 0


def reference_hash(sector):
    """The kernel spelled out over Python ints: numpy's uint64 products
    and sums must wrap exactly mod 2^64, in little-endian word order."""
    mask = (1 << 64) - 1
    total = 0
    words = struct.unpack("<%dQ" % WORDS, sector)
    for word, multiplier in zip(words, hashing._MULTIPLIERS.tolist()):
        mixed = word * int(hashing._PREMIX) & mask
        mixed ^= mixed >> 32
        total += mixed * multiplier
    return total & mask


def test_kernel_matches_its_definition_over_python_ints():
    data = random_sectors(16, seed=6) + bytes([0xFF]) * SECTOR
    assert sector_hashes(data) == [
        reference_hash(data[at : at + SECTOR])
        for at in range(0, len(data), SECTOR)
    ]


def test_sector_hash_is_the_first_of_sector_hashes():
    data = random_sectors(5)
    for at in range(0, len(data), SECTOR):
        one = data[at : at + SECTOR]
        assert sector_hash(one) == sector_hashes(one)[0]
        assert sector_hash(one) == sector_hashes(data)[at // SECTOR]
    with pytest.raises(ValueError):
        sector_hash(data)  # five sectors are not one


def test_no_view_of_a_bytearray_outlives_a_call():
    """A reused I/O buffer must stay resizable: a buffer export left
    behind by the kernel or the matcher would make ``extend`` raise."""
    stored = random_sectors(16, seed=3)
    index = DedupIndex()
    for sector, value in list(enumerate(sector_hashes(stored)))[::8]:
        index.record(value, DedupLocation(1, 0, len(stored), sector))
    deduper = InlineDeduper(index, lambda location: stored)
    for content in (stored, random_sectors(16, seed=4)):  # a hit, then none
        buffer = bytearray(content)
        sector_hashes(buffer)
        sector_hash_vector(buffer)
        sector_hash(memoryview(buffer)[:SECTOR])
        deduper.find_matches(buffer)
        buffer.extend(bytes(SECTOR))
        del buffer[SECTOR:]
    assert deduper.matches_found == 1
    buffer = bytearray(b"x" * 100)
    with pytest.raises(ValueError):
        deduper.find_matches(buffer)
    buffer.extend(b"y")  # not even a rejected call leaves an export


# ----------------------------------------------------------------------
# Quality: collisions among distinct sectors


def distinct_sectors(data):
    return {data[at : at + SECTOR] for at in range(0, len(data), SECTOR)}


def collisions(sectors):
    """Distinct sectors minus distinct hashes (0 = collision-free)."""
    sectors = set(sectors)
    return len(sectors) - len(set(sector_hashes(b"".join(sectors))))


def word_sectors(words):
    """Sectors from an (n, 64) array of little-endian words."""
    rows = np.asarray(words, dtype="<u8").reshape(-1, WORDS)
    return [row.tobytes() for row in rows]


@pytest.mark.parametrize("name", sorted(PROFILES) + ["seq"])
def test_no_collisions_on_generated_profiles(name):
    # "seq" is the benchmarks' sequential-ingest data: 2:1, no dups.
    profile = PROFILES.get(name) or DataProfile("seq", 0.5, 0.0)
    generator = DataGenerator(profile, RandomStream(2015).fork(name))
    data = generator.buffer(2 ** 16 * SECTOR)
    assert len(distinct_sectors(data)) > 2000  # fillers repeat; payload not
    assert collisions(distinct_sectors(data)) == 0


def test_no_collisions_on_single_bit_flips_of_a_random_sector():
    base = random_sectors(1)
    family = [base]
    for bit in range(SECTOR * 8):
        flipped = bytearray(base)
        flipped[bit // 8] ^= 1 << (bit % 8)
        family.append(bytes(flipped))
    assert len(set(family)) == SECTOR * 8 + 1
    assert collisions(family) == 0


def test_no_collisions_on_single_bits_in_a_zero_sector():
    family = [bytes(SECTOR)]
    for bit in range(SECTOR * 8):
        one = bytearray(SECTOR)
        one[bit // 8] = 1 << (bit % 8)
        family.append(bytes(one))
    assert collisions(family) == 0


def test_no_collisions_on_powers_of_two_added_to_one_word():
    base = np.frombuffer(random_sectors(1, seed=5), dtype="<u8")
    powers = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    family = np.tile(base, (WORDS * 64, 1))
    for word in range(WORDS):
        family[word * 64 : (word + 1) * 64, word] += powers  # wraps mod 2^64
    sectors = word_sectors(family)
    assert len(set(sectors)) == WORDS * 64
    assert collisions(sectors) == 0


def top_bit_pairs():
    """A zero sector with the top bit set in words i and j, every i < j."""
    family = []
    for i in range(WORDS):
        for j in range(i + 1, WORDS):
            words = np.zeros(WORDS, dtype="<u8")
            words[[i, j]] = np.uint64(1 << 63)
            family.append(words)
    return word_sectors(family)


def test_no_collisions_on_top_bits_in_every_pair_of_words():
    family = top_bit_pairs()
    assert len(set(family)) == WORDS * (WORDS - 1) // 2
    assert collisions(family) == 0


def test_the_pre_mix_is_what_separates_top_bit_pairs():
    """Without the pre-mix the hash is linear mod 2^64: 2^63 times an
    odd multiplier is 2^63, so two top bits cancel and the whole family
    lands on one value."""
    words = np.frombuffer(b"".join(top_bit_pairs()), dtype="<u8")
    bare = words.reshape(-1, WORDS).dot(hashing._MULTIPLIERS)
    assert len(set(bare.tolist())) == 1
