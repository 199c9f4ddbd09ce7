"""Arithmetic in GF(2^8).

The paper cites Plank et al.'s SIMD Galois-field work [45] for its
"screaming fast" software Reed–Solomon. CPython's SIMD-shaped table
lookup is ``bytes.translate``: one C loop over the operand through a
256-byte table, with no index array, no masking and no per-element
dispatch. Scalar ops use exp/log tables; array ops translate the
operand through ``MUL_ROWS[scalar]`` — that scalar's row of the full
256x256 product table ``MUL_TABLE``, as ``bytes`` — and XOR with numpy.
Rows 0 and 1 are the zero map and the identity, so the kernels need no
scalar special-casing for correctness. The field uses the common
AES-unrelated polynomial 0x11d.

What the array kernels allocate: ``translate`` returns a fresh ``bytes``
product per call (there is no ``out=``), and an operand that is not
already ``bytes`` is copied into one first (``bytes.translate`` is a
method of ``bytes``). ``addmul_array`` XORs the product into the
caller's accumulator in place and allocates nothing else.

The older masked exp/log array kernels are kept as
``mul_array_reference`` / ``addmul_array_reference``: they are the
oracle the property tests check the translate kernels against
bit-for-bit.
"""

import numpy as np

#: Field-defining primitive polynomial x^8 + x^4 + x^3 + x^2 + 1.
PRIMITIVE_POLY = 0x11D


def _build_tables():
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    value = 1
    for power in range(255):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= PRIMITIVE_POLY
    # Duplicate so exp[log a + log b] never needs a mod 255.
    exp[255:510] = exp[0:255]
    return exp, log


def _build_mul_table(exp, log):
    """The full 256x256 product table: table[a][b] = a * b in GF(256).

    Row 0 is all zeros and row 1 is the identity, so the array kernels
    need no scalar special-casing.
    """
    table = np.zeros((256, 256), dtype=np.uint8)
    logs = log[1:].astype(np.int64)
    table[1:, 1:] = exp[logs[:, None] + logs[None, :]]
    return table


class GF256:
    """GF(2^8) arithmetic: scalar helpers plus vectorized shard ops."""

    EXP, LOG = _build_tables()
    MUL_TABLE = _build_mul_table(EXP, LOG)
    #: ``MUL_TABLE``'s rows as 256-byte ``bytes.translate`` tables.
    MUL_ROWS = tuple(row.tobytes() for row in MUL_TABLE)

    @classmethod
    def add(cls, a, b):
        """Addition (= subtraction) is XOR."""
        return a ^ b

    @classmethod
    def mul(cls, a, b):
        """Scalar multiply."""
        if a == 0 or b == 0:
            return 0
        return int(cls.EXP[int(cls.LOG[a]) + int(cls.LOG[b])])

    @classmethod
    def div(cls, a, b):
        """Scalar divide; b must be non-zero."""
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(256)")
        if a == 0:
            return 0
        return int(cls.EXP[(int(cls.LOG[a]) - int(cls.LOG[b])) % 255])

    @classmethod
    def inv(cls, a):
        """Multiplicative inverse; a must be non-zero."""
        if a == 0:
            raise ZeroDivisionError("zero has no inverse in GF(256)")
        return int(cls.EXP[255 - int(cls.LOG[a])])

    @classmethod
    def pow(cls, a, exponent):
        """a raised to an integer power."""
        if exponent == 0:
            return 1
        if a == 0:
            return 0
        return int(cls.EXP[(int(cls.LOG[a]) * exponent) % 255])

    @staticmethod
    def as_bytes(data):
        """The ``bytes`` form of a uint8 buffer, which ``translate`` needs.

        ``bytes`` passes through; an array (strided or not),
        ``bytearray`` or ``memoryview`` is copied once. A caller that
        multiplies one operand by several scalars converts it once here.
        """
        if type(data) is bytes:
            return data
        return data.tobytes() if isinstance(data, np.ndarray) else bytes(data)

    @classmethod
    def mul_array(cls, array, scalar):
        """Multiply a uint8 buffer elementwise by a scalar.

        Returns a read-only uint8 array, shaped like ``array`` when
        that is an ndarray and flat otherwise.
        """
        product = np.frombuffer(
            cls.as_bytes(array).translate(cls.MUL_ROWS[scalar]), dtype=np.uint8
        )
        if isinstance(array, np.ndarray):
            return product.reshape(array.shape)
        return product

    @classmethod
    def addmul_array(cls, accumulator, array, scalar):
        """accumulator ^= array * scalar, in place (the RS inner loop).

        ``accumulator`` is a writable uint8 ndarray; ``array`` is any
        uint8 buffer of the same length (see :meth:`as_bytes`).
        """
        if scalar == 0:
            return accumulator
        if scalar != 1:
            array = cls.as_bytes(array).translate(cls.MUL_ROWS[scalar])
        if not isinstance(array, np.ndarray):
            array = np.frombuffer(array, dtype=np.uint8)
        np.bitwise_xor(accumulator, array, out=accumulator)
        return accumulator

    # ------------------------------------------------------------------
    # Reference kernels: the seed exp/log implementation, kept in-tree
    # as the bit-exactness oracle for the translate kernels above.

    @classmethod
    def mul_array_reference(cls, array, scalar):
        """Masked exp/log array multiply (seed implementation, oracle)."""
        if scalar == 0:
            return np.zeros_like(array)
        if scalar == 1:
            return array.copy()
        log_scalar = int(cls.LOG[scalar])
        result = np.zeros_like(array)
        nonzero = array != 0
        result[nonzero] = cls.EXP[cls.LOG[array[nonzero]] + log_scalar]
        return result

    @classmethod
    def addmul_array_reference(cls, accumulator, array, scalar):
        """Seed addmul: allocates a product temporary per call (oracle)."""
        if scalar == 0:
            return accumulator
        accumulator ^= cls.mul_array_reference(array, scalar)
        return accumulator

    @classmethod
    def matmul(cls, matrix_a, matrix_b):
        """Multiply two GF(256) matrices given as lists of row lists."""
        rows = len(matrix_a)
        inner = len(matrix_b)
        cols = len(matrix_b[0])
        result = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            row_a = matrix_a[i]
            row_out = result[i]
            for k in range(inner):
                coefficient = row_a[k]
                if coefficient == 0:
                    continue
                row_b = matrix_b[k]
                for j in range(cols):
                    if row_b[j]:
                        row_out[j] ^= cls.mul(coefficient, row_b[j])
        return result

    @classmethod
    def matinv(cls, matrix):
        """Invert a square GF(256) matrix via Gauss–Jordan elimination.

        Raises ValueError when the matrix is singular.
        """
        size = len(matrix)
        work = [list(row) + [0] * size for row in matrix]
        for i in range(size):
            work[i][size + i] = 1
        for column in range(size):
            pivot_row = None
            for row in range(column, size):
                if work[row][column]:
                    pivot_row = row
                    break
            if pivot_row is None:
                raise ValueError("singular matrix over GF(256)")
            work[column], work[pivot_row] = work[pivot_row], work[column]
            pivot_inv = cls.inv(work[column][column])
            work[column] = [cls.mul(entry, pivot_inv) for entry in work[column]]
            for row in range(size):
                if row == column or not work[row][column]:
                    continue
                factor = work[row][column]
                work[row] = [
                    entry ^ cls.mul(factor, pivot_entry)
                    for entry, pivot_entry in zip(work[row], work[column])
                ]
        return [row[size:] for row in work]
