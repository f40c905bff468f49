"""Slow reference for the GF(2) layer.

cayleycodes.gf2 packs row supports in one scatter and eliminates one
64-column word at a time.  This module keeps the bit-at-a-time packing,
the textbook column-at-a-time elimination (one strided pivot search per
column, a row swap per pivot, full-width row XORs), the rref and the
double-loop nullspace built on it (the only nullspace: the codeword
oracles of code_reference span it), and the one-row membership helpers
and the span equality of integer-encoded rows the tests use, as an
independent oracle; plus the integer, coefficient-list and CSR
conversions, the polynomial gcd, weight and cyclic shift the tests
build inputs with.
"""

from __future__ import annotations

import numpy as np

from cayleycodes.gf2 import Echelon, Gf2Matrix, independent
from cayleycodes.gf2poly import mod

_ONE = np.uint64(1)


def pack_int(ncols: int, value: int) -> np.ndarray:
    nw = (ncols + 63) >> 6
    return np.frombuffer(value.to_bytes(nw * 8, "little"), dtype=np.uint64).copy()


def unpack_int(row: np.ndarray) -> int:
    return int.from_bytes(row.tobytes(), "little")


def to_ints(matrix: Gf2Matrix) -> list[int]:
    """The integer-encoded rows of a packed matrix (bit c = column c)."""
    return [unpack_int(r) for r in matrix.data]


def from_ints(ncols: int, rows) -> Gf2Matrix:
    """A packed matrix from integer-encoded rows (bit c = column c)."""
    data = np.zeros((len(rows), (ncols + 63) >> 6), dtype=np.uint64)
    for i, r in enumerate(rows):
        if r < 0 or r >> ncols:
            raise ValueError(f"row {i} does not fit in {ncols} columns")
        data[i] = pack_int(ncols, r)
    return Gf2Matrix(ncols, data)


def reference_from_supports(ncols: int, supports) -> Gf2Matrix:
    """A packed matrix from row supports, one bit at a time."""
    data = np.zeros((len(supports), (ncols + 63) >> 6), dtype=np.uint64)
    for i, sup in enumerate(supports):
        for c in sup:
            if not 0 <= c < ncols:
                raise ValueError(f"column {c} out of range")
            data[i, c >> 6] |= _ONE << np.uint64(c & 63)
    return Gf2Matrix(ncols, data)


def csr(rows) -> tuple[np.ndarray, np.ndarray]:
    """The CSR pair (int64 indptr, int32 indices) of the matrix whose
    row i has the columns rows[i], in the order given."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.array([len(r) for r in rows], dtype=np.int64), out=indptr[1:])
    return indptr, np.array([c for r in rows for c in r], dtype=np.int32)


def rows_of(indptr, indices) -> list[list[int]]:
    """The rows of a CSR pair as lists of column indices."""
    return [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]


def from_coeffs(coeffs) -> int:
    """GF(2) polynomial from a coefficient sequence, lowest degree first."""
    return sum(1 << i for i, c in enumerate(coeffs) if c & 1)


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of two polynomials, by Euclid."""
    while b:
        a, b = b, mod(a, b)
    return a


def weight(a: int) -> int:
    """Number of nonzero coefficients."""
    return a.bit_count()


def cyclic_shift(word: int, n: int, amount: int = 1) -> int:
    """Cyclic shift of an n-bit word: multiplication by x^amount mod x^n - 1."""
    amount %= n
    mask = (1 << n) - 1
    return ((word << amount) | (word >> (n - amount))) & mask


def to_coeffs(a: int, length: int | None = None) -> list[int]:
    """Coefficient list, lowest degree first, padded to `length` if given."""
    return [(a >> i) & 1 for i in range(max(a.bit_length(), length or 0))]


def reference_echelon(matrix: Gf2Matrix) -> Echelon:
    """Forward Gaussian elimination, one column at a time, on a copy;
    row i of the result holds the i-th pivot."""
    m = matrix.data.copy()
    nrows = m.shape[0]
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(matrix.ncols):
        if r == nrows:
            break
        w = col >> 6
        b = np.uint64(col & 63)
        nz = np.nonzero((m[r:, w] >> b) & _ONE)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        hit = r + nz[1:]
        if hit.size:
            m[hit] ^= m[r]
        pivots.append((r, col))
        r += 1
    return Echelon(matrix.ncols, m[:r], pivots)


def reference_rref(matrix: Gf2Matrix) -> tuple[np.ndarray, list[int]]:
    ech = reference_echelon(matrix)
    m = ech.rows.copy()
    for i, col in reversed(ech.pivots):
        w = col >> 6
        b = np.uint64(col & 63)
        hit = np.nonzero((m[:i, w] >> b) & _ONE)[0]
        if hit.size:
            m[hit] ^= m[i]
    return m, [c for _, c in ech.pivots]


def reference_nullspace(matrix: Gf2Matrix) -> Gf2Matrix:
    """Nullspace basis, one row per free column, one bit at a time."""
    m, pivot_cols = reference_rref(matrix)
    ncols = matrix.ncols
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = np.zeros((len(free_cols), (ncols + 63) >> 6), dtype=np.uint64)
    for bi, f in enumerate(free_cols):
        basis[bi, f >> 6] |= _ONE << np.uint64(f & 63)
        for ri, c in enumerate(pivot_cols):
            if (int(m[ri, f >> 6]) >> (f & 63)) & 1:
                basis[bi, c >> 6] |= _ONE << np.uint64(c & 63)
    return Gf2Matrix(ncols, basis)


def reduce(ech: Echelon, row: np.ndarray) -> np.ndarray:
    """Residual of one packed row after reduction against the pivots."""
    v = row.copy()
    for i, col in ech.pivots:
        if (int(v[col >> 6]) >> (col & 63)) & 1:
            v ^= ech.rows[i]
    return v


def contains(ech: Echelon, row: np.ndarray) -> bool:
    return not reduce(ech, row).any()


def contains_int(ech: Echelon, value: int) -> bool:
    return contains(ech, pack_int(ech.ncols, value))


def int_span_equal(rows_a, rows_b) -> bool:
    """Whether two sets of integer-encoded rows span the same space."""
    ra = len(independent(list(rows_a)))
    rb = len(independent(list(rows_b)))
    return ra == rb == len(independent(list(rows_a) + list(rows_b)))
