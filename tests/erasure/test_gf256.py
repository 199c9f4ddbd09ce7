"""Tests for GF(256) arithmetic."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.erasure.gf256 import GF256

nonzero = st.integers(min_value=1, max_value=255)
element = st.integers(min_value=0, max_value=255)


def test_add_is_xor():
    assert GF256.add(0b1010, 0b0110) == 0b1100
    assert GF256.add(77, 77) == 0


def test_mul_identities():
    for a in range(256):
        assert GF256.mul(a, 1) == a
        assert GF256.mul(a, 0) == 0
        assert GF256.mul(0, a) == 0


@given(element, element)
def test_mul_commutative(a, b):
    assert GF256.mul(a, b) == GF256.mul(b, a)


@given(element, element, element)
def test_mul_associative(a, b, c):
    assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))


@given(element, element, element)
def test_distributive(a, b, c):
    assert GF256.mul(a, b ^ c) == GF256.mul(a, b) ^ GF256.mul(a, c)


@given(nonzero)
def test_inverse(a):
    assert GF256.mul(a, GF256.inv(a)) == 1


@given(element, nonzero)
def test_div_inverts_mul(a, b):
    assert GF256.div(GF256.mul(a, b), b) == a


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF256.div(5, 0)
    with pytest.raises(ZeroDivisionError):
        GF256.inv(0)


@given(nonzero, st.integers(min_value=0, max_value=10))
def test_pow_matches_repeated_mul(a, n):
    expected = 1
    for _ in range(n):
        expected = GF256.mul(expected, a)
    assert GF256.pow(a, n) == expected


def test_mul_array_matches_scalar():
    data = np.arange(256, dtype=np.uint8)
    scalar = 0x53
    product = GF256.mul_array(data, scalar)
    for index in range(256):
        assert product[index] == GF256.mul(index, scalar)


def test_mul_array_by_zero_and_one():
    data = np.array([1, 2, 3, 255], dtype=np.uint8)
    assert GF256.mul_array(data, 0).tolist() == [0, 0, 0, 0]
    assert GF256.mul_array(data, 1).tolist() == [1, 2, 3, 255]


def test_mul_table_matches_scalar_mul_exhaustively():
    """All 65536 products of the full table equal the exp/log scalar op."""
    for a in range(256):
        row = GF256.MUL_TABLE[a]
        for b in range(0, 256, 17):  # stride keeps the loop fast
            assert row[b] == GF256.mul(a, b)
    # Full cross-check vectorized: table vs table-transpose (commutativity)
    # and the defining rows.
    assert np.array_equal(GF256.MUL_TABLE, GF256.MUL_TABLE.T)
    assert not GF256.MUL_TABLE[0].any()
    assert np.array_equal(GF256.MUL_TABLE[1], np.arange(256, dtype=np.uint8))


#: Kernel operand lengths: empty, one byte, odd, a chunk, a write unit less one.
KERNEL_LENGTHS = (0, 1, 511, 4096, (1 << 20) - 1)


def _operand_forms(rng, length):
    """One random operand as every input form the kernels are handed.

    The strided form is a column of a 2-D matrix — what a row of a
    matrix that is not row-major is to ``ReedSolomon.encode_stripes``.
    """
    grid = rng.integers(0, 256, size=(length, 2), dtype=np.uint8)
    grid[: length // 16, 0] = 0  # force the zero-element path
    strided = grid[:, 0]
    contiguous = np.ascontiguousarray(strided)
    assert length < 2 or not strided.flags["C_CONTIGUOUS"]
    data = contiguous.tobytes()
    return contiguous, {
        "contiguous": contiguous,
        "strided": strided,
        "memoryview": memoryview(bytearray(data)),
        "bytes": data,
    }


def test_mul_array_matches_reference_all_scalars():
    """The translate kernel is bit-identical to the seed exp/log oracle."""
    rng = np.random.default_rng(1234)
    for length in KERNEL_LENGTHS:
        reference_input, forms = _operand_forms(rng, length)
        for scalar in range(256):
            expected = GF256.mul_array_reference(reference_input, scalar)
            for form, operand in forms.items():
                product = GF256.mul_array(operand, scalar)
                assert product.dtype == np.uint8 and product.shape == (length,)
                assert np.array_equal(product, expected), (length, scalar, form)


def test_addmul_array_matches_reference_all_scalars():
    rng = np.random.default_rng(99)
    for length in KERNEL_LENGTHS:
        reference_input, forms = _operand_forms(rng, length)
        base = rng.integers(0, 256, size=length, dtype=np.uint8)
        for scalar in range(256):
            expected = base.copy()
            GF256.addmul_array_reference(expected, reference_input, scalar)
            for form, operand in forms.items():
                accumulator = base.copy()
                result = GF256.addmul_array(accumulator, operand, scalar)
                assert result is accumulator  # in place
                assert np.array_equal(accumulator, expected), (length, scalar, form)
        # The operands came through untouched.
        for operand in forms.values():
            assert bytes(operand) == reference_input.tobytes()


def test_addmul_product_does_not_alias_the_accumulator():
    """a ^= a * s with one buffer on both sides is still a * (1 + s)."""
    rng = np.random.default_rng(7)
    data = rng.integers(0, 256, size=4096, dtype=np.uint8)
    for scalar in (0, 1, 2, 0x53, 255):
        accumulator = data.copy()
        GF256.addmul_array(accumulator, accumulator, scalar)
        expected = data.copy()
        GF256.addmul_array_reference(expected, data, scalar)
        assert np.array_equal(accumulator, expected), scalar
    # And mul_array never hands back memory the caller can write through.
    product = GF256.mul_array(data, 0x53)
    assert not np.shares_memory(product, data)
    assert not product.flags.writeable


@given(st.binary(min_size=1, max_size=512), element)
def test_mul_array_matches_reference_random_arrays(payload, scalar):
    data = np.frombuffer(payload, dtype=np.uint8)
    assert np.array_equal(
        GF256.mul_array(data, scalar), GF256.mul_array_reference(data, scalar)
    )


def test_matinv_roundtrip():
    matrix = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    inverse = GF256.matinv(matrix)
    product = GF256.matmul(matrix, inverse)
    identity = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert product == identity


def test_matinv_singular_raises():
    singular = [[1, 2], [1, 2]]
    with pytest.raises(ValueError):
        GF256.matinv(singular)
