"""Tests for the Reed-Solomon codec, including property-based erasure
recovery over the paper's 7+2 geometry and bit-exactness of the
optimized (translate-table, batched) encode against the seed oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.gf256 import GF256
from repro.erasure.reed_solomon import ReedSolomon
from repro.errors import UncorrectableError


@pytest.fixture(scope="module")
def purity_code():
    """The 7+2 code Purity uses (Section 4.4)."""
    return ReedSolomon(7, 2)


def make_shards(code, length=64, seed=1):
    import random

    rng = random.Random(seed)
    return [rng.randbytes(length) for _ in range(code.data_shards)]


def test_encode_produces_parity(purity_code):
    data = make_shards(purity_code)
    parity = purity_code.encode(data)
    assert len(parity) == 2
    assert all(len(shard) == 64 for shard in parity)


def test_systematic_property(purity_code):
    """Data shards pass through unchanged; stripe verifies."""
    data = make_shards(purity_code)
    parity = purity_code.encode(data)
    assert purity_code.verify(data + parity)


def test_single_data_erasure(purity_code):
    data = make_shards(purity_code)
    parity = purity_code.encode(data)
    stripe = data + parity
    lost = list(stripe)
    lost[3] = None
    recovered = purity_code.reconstruct(lost)
    assert recovered == stripe


def test_double_data_erasure(purity_code):
    data = make_shards(purity_code)
    parity = purity_code.encode(data)
    stripe = data + parity
    lost = list(stripe)
    lost[0] = None
    lost[6] = None
    assert purity_code.reconstruct(lost) == stripe


def test_parity_erasure(purity_code):
    data = make_shards(purity_code)
    parity = purity_code.encode(data)
    stripe = data + parity
    lost = list(stripe)
    lost[7] = None
    lost[8] = None
    assert purity_code.reconstruct(lost) == stripe


def test_mixed_data_and_parity_erasure(purity_code):
    data = make_shards(purity_code)
    parity = purity_code.encode(data)
    stripe = data + parity
    lost = list(stripe)
    lost[2] = None
    lost[8] = None
    assert purity_code.reconstruct(lost) == stripe


def test_three_erasures_uncorrectable(purity_code):
    data = make_shards(purity_code)
    parity = purity_code.encode(data)
    lost = list(data + parity)
    lost[0] = lost[1] = lost[7] = None
    with pytest.raises(UncorrectableError):
        purity_code.reconstruct(lost)


def test_no_erasures_is_identity(purity_code):
    data = make_shards(purity_code)
    stripe = data + purity_code.encode(data)
    assert purity_code.reconstruct(list(stripe)) == stripe


def test_shard_length_mismatch_rejected(purity_code):
    data = make_shards(purity_code)
    data[0] = data[0][:-1]
    with pytest.raises(ValueError):
        purity_code.encode(data)


def test_wrong_shard_count_rejected(purity_code):
    with pytest.raises(ValueError):
        purity_code.encode([b"ab"] * 6)
    with pytest.raises(ValueError):
        purity_code.reconstruct([b"ab"] * 8)


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        ReedSolomon(0, 2)
    with pytest.raises(ValueError):
        ReedSolomon(7, 0)
    with pytest.raises(ValueError):
        ReedSolomon(250, 10)


def test_verify_detects_corruption(purity_code):
    data = make_shards(purity_code)
    parity = purity_code.encode(data)
    stripe = data + parity
    corrupted = list(stripe)
    corrupted[4] = bytes(b ^ 0xFF for b in corrupted[4])
    assert not purity_code.verify(corrupted)


def test_encode_matches_reference_oracle(purity_code):
    """The table/scratch encode is bit-identical to the seed kernels."""
    for seed in range(8):
        data = make_shards(purity_code, length=257, seed=seed)
        assert purity_code.encode(data) == purity_code.encode_reference(data)


def test_encode_stripes_matches_reference(purity_code):
    rng = np.random.default_rng(42)
    matrix = rng.integers(0, 256, size=(7, 1024), dtype=np.uint8)
    parity = purity_code.encode_stripes(matrix)
    assert parity.shape == (2, 1024)
    shards = [matrix[row].tobytes() for row in range(7)]
    expected = purity_code.encode_reference(shards)
    got = [parity[row].tobytes() for row in range(2)]
    assert got == expected
    # The same holds after a stripe of a different length resized the
    # codec's scratch buffers.
    small = rng.integers(0, 256, size=(7, 64), dtype=np.uint8)
    small_parity = [row.tobytes() for row in purity_code.encode_stripes(small)]
    assert small_parity == purity_code.encode_reference(
        [small[row].tobytes() for row in range(7)]
    )


def test_encode_stripes_rejects_bad_shapes(purity_code):
    with pytest.raises(ValueError):
        purity_code.encode_stripes(np.zeros((6, 32), dtype=np.uint8))
    with pytest.raises(ValueError):
        purity_code.encode_stripes(np.zeros(32, dtype=np.uint8))


def test_encode_is_repeatable_despite_shared_buffers(purity_code):
    """Reusing the codec's scratch must not leak state across stripes."""
    first = make_shards(purity_code, length=128, seed=11)
    second = make_shards(purity_code, length=128, seed=22)
    parity_first = purity_code.encode(first)
    purity_code.encode(second)  # clobbers the scratch buffers
    assert purity_code.encode(first) == parity_first


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.binary(min_size=16, max_size=16), min_size=7, max_size=7
    ),
)
def test_encode_property_matches_reference(data):
    code = ReedSolomon(7, 2)
    assert code.encode(data) == code.encode_reference(data)


@settings(max_examples=20, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=10),
    m=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_general_geometry_encode_matches_reference(k, m, seed):
    import random

    rng = random.Random(seed)
    code = ReedSolomon(k, m)
    data = [rng.randbytes(48) for _ in range(k)]
    assert code.encode(data) == code.encode_reference(data)


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.binary(min_size=16, max_size=16), min_size=7, max_size=7
    ),
    erasures=st.sets(st.integers(min_value=0, max_value=8), min_size=0, max_size=2),
)
def test_any_two_erasures_recoverable(data, erasures):
    code = ReedSolomon(7, 2)
    stripe = data + code.encode(data)
    lost = [None if index in erasures else shard for index, shard in enumerate(stripe)]
    assert code.reconstruct(lost) == stripe


@settings(max_examples=20, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=10),
    m=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_general_geometries(k, m, seed):
    import random

    rng = random.Random(seed)
    code = ReedSolomon(k, m)
    data = [rng.randbytes(32) for _ in range(k)]
    stripe = data + code.encode(data)
    erased = rng.sample(range(k + m), m)
    lost = [None if index in erased else shard for index, shard in enumerate(stripe)]
    assert code.reconstruct(lost) == stripe


def test_reconstruct_rebuilds_only_the_targets(purity_code, monkeypatch):
    """Two empty slots, one wanted: k multiply-accumulates, not 2k.

    The segment reader reads exactly k of the other k+m-1 shards, so
    its stripes always have a second empty slot it has no use for.
    """
    data = make_shards(purity_code, length=96, seed=11)
    stripe = data + purity_code.encode(data)
    calls = []
    addmul = GF256.addmul_array
    monkeypatch.setattr(
        GF256, "addmul_array",
        lambda *args: calls.append(1) or addmul(*args),
    )
    for target, unread in ((2, 8), (0, 5), (8, 3), (7, 8)):
        damaged = [
            None if index in (target, unread) else shard
            for index, shard in enumerate(stripe)
        ]
        full = purity_code.reconstruct(damaged)
        assert len(calls) == 2 * purity_code.data_shards
        del calls[:]
        only = purity_code.reconstruct(damaged, targets=(target,))
        assert len(calls) == purity_code.data_shards
        del calls[:]
        assert only[target] == full[target] == stripe[target]
        assert only[unread] is None
        # Survivors pass through as the objects they came in as.
        for index, shard in enumerate(damaged):
            if shard is not None:
                assert only[index] is shard and full[index] is shard
