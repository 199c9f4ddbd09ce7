"""Exhaustive Reed-Solomon differential tests for the 7+2 geometry.

Every 1- and 2-erasure pattern over the 9 shard slots (45 patterns,
including parity-only losses) must reconstruct the original stripe
byte-for-byte. The production table-driven GF(256) kernels are checked
against the seed exp/log oracle two ways: ``encode`` versus
``encode_reference``, and ``reconstruct`` versus an in-test reference
decoder built purely from :class:`GF256` oracle primitives and the
codec's generator matrix.
"""

import itertools

import numpy as np
import pytest

from repro.erasure.gf256 import GF256
from repro.erasure.reed_solomon import ReedSolomon
from repro.errors import UncorrectableError
from repro.sim.rand import RandomStream

K, M = 7, 2
TOTAL = K + M
SHARD_LEN = 257  # odd on purpose: no accidental alignment luck


@pytest.fixture(scope="module")
def code():
    return ReedSolomon(K, M)


@pytest.fixture(scope="module")
def stripe(code):
    """One complete stripe (data + parity) of varied content."""
    stream = RandomStream(0xE5)
    data = [
        stream.randbytes(SHARD_LEN),          # random
        bytes(SHARD_LEN),                     # all zeros
        bytes([0xFF]) * SHARD_LEN,            # all ones
        bytes(range(256)) + b"\x00",          # every byte value
        stream.randbytes(SHARD_LEN),
        (b"\xAA\x55" * SHARD_LEN)[:SHARD_LEN],
        stream.randbytes(SHARD_LEN),
    ]
    return data + code.encode(data)


def _reference_decode(code, shards):
    """Reconstruct using only the seed exp/log oracle kernels.

    Independent of the production decode path: picks k surviving rows
    of the generator matrix, inverts, and accumulates with
    ``addmul_array_reference``.
    """
    present = [i for i, shard in enumerate(shards) if shard is not None]
    chosen = present[:K]
    submatrix = [code._matrix[i] for i in chosen]
    inverse = GF256.matinv(submatrix)
    survivors = [np.frombuffer(shards[i], dtype=np.uint8) for i in chosen]
    data_arrays = []
    for row in inverse:
        accumulator = np.zeros(SHARD_LEN, dtype=np.uint8)
        for coefficient, array in zip(row, survivors):
            GF256.addmul_array_reference(accumulator, array, coefficient)
        data_arrays.append(accumulator)
    complete = []
    for index in range(TOTAL):
        row = code._matrix[index]
        accumulator = np.zeros(SHARD_LEN, dtype=np.uint8)
        for coefficient, array in zip(row, data_arrays):
            GF256.addmul_array_reference(accumulator, array, coefficient)
        complete.append(accumulator.tobytes())
    return complete


def _erasure_patterns():
    singles = [(i,) for i in range(TOTAL)]
    doubles = list(itertools.combinations(range(TOTAL), 2))
    return singles + doubles


def test_pattern_count_is_exhaustive():
    patterns = _erasure_patterns()
    assert len(patterns) == 9 + 36  # C(9,1) + C(9,2)
    # Parity-only losses are included.
    assert (7, 8) in patterns and (8,) in patterns


@pytest.mark.parametrize("lost", _erasure_patterns(),
                         ids=lambda lost: "lost-" + "-".join(map(str, lost)))
def test_reconstruct_every_erasure_pattern(code, stripe, lost):
    damaged = [None if i in lost else stripe[i] for i in range(TOTAL)]
    recovered = code.reconstruct(damaged)
    assert recovered == stripe  # byte-for-byte, parity included
    # Differential: the oracle decoder agrees with the table kernels.
    assert _reference_decode(code, damaged) == stripe


def test_reconstruct_fills_only_what_was_lost_and_inverts_once(stripe, monkeypatch):
    """Present shards pass through; one ``matinv`` per erasure pattern."""
    code = ReedSolomon(K, M)  # fresh: the module fixture's cache is warm
    inversions = []
    matinv = GF256.matinv

    def reconstruct(shards):
        # Counted around the codec alone: the oracle decoder inverts too.
        with monkeypatch.context() as counted:
            counted.setattr(
                GF256, "matinv", lambda matrix: inversions.append(1) or matinv(matrix)
            )
            return code.reconstruct(shards)

    patterns = _erasure_patterns()
    for repeat in range(2):
        for lost in patterns:
            damaged = [None if i in lost else stripe[i] for i in range(TOTAL)]
            # A surviving shard decode does not read comes back as given,
            # not re-derived: the last one is spare whenever k others live.
            spare = max(set(range(TOTAL)) - set(lost))
            if len(lost) < M:
                damaged[spare] = bytes(SHARD_LEN)
            recovered = reconstruct(damaged)
            oracle = _reference_decode(code, damaged)
            for index in range(TOTAL):
                expected = oracle[index] if index in lost else damaged[index]
                assert recovered[index] == expected, (lost, index)
        # The second sweep finds every pattern's decode rows cached.
        assert len(inversions) == len(patterns), repeat
    assert len(code._decode_rows) == len(patterns)  # C(9,1) + C(9,2), no more
    with pytest.raises(UncorrectableError):
        code.reconstruct([None] * (M + 1) + stripe[M + 1:])
    assert len(code._decode_rows) == len(patterns)


def test_encode_matches_reference_oracle(code):
    stream = RandomStream(0x0DDC)
    for _ in range(25):
        data = [stream.randbytes(SHARD_LEN) for _ in range(K)]
        assert code.encode(data) == code.encode_reference(data)


def test_encode_stripes_matches_reference(code):
    stream = RandomStream(0x57121)
    data = [stream.randbytes(SHARD_LEN) for _ in range(K)]
    matrix = np.frombuffer(b"".join(data), dtype=np.uint8).reshape(K, SHARD_LEN)
    batched = [bytes(row) for row in code.encode_stripes(matrix)]
    assert batched == code.encode_reference(data)


def test_three_erasures_raise(code, stripe):
    for lost in [(0, 1, 2), (0, 7, 8), (6, 7, 8)]:
        damaged = [None if i in lost else stripe[i] for i in range(TOTAL)]
        with pytest.raises(UncorrectableError):
            code.reconstruct(damaged)


def test_verify_accepts_good_rejects_tampered(code, stripe):
    assert code.verify(stripe)
    tampered = list(stripe)
    tampered[3] = bytes([tampered[3][0] ^ 1]) + tampered[3][1:]
    assert not code.verify(tampered)
