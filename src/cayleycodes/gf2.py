"""GF(2) linear algebra on word-packed bit matrices.

Rows are numpy uint64 arrays, 64 columns per word, column c stored in
bit c & 63 of word c >> 6.  Elimination is vectorized across rows, so
rank of the desk-scale parity-check matrices (tens of thousands of rows
and columns) takes seconds.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

_ONE = np.uint64(1)


def _n_words(ncols: int) -> int:
    return (ncols + 63) >> 6


def pack_int(ncols: int, value: int) -> np.ndarray:
    nw = _n_words(ncols)
    data = value.to_bytes(nw * 8, "little")
    return np.frombuffer(data, dtype=np.uint64).copy()


def unpack_int(row: np.ndarray) -> int:
    return int.from_bytes(row.tobytes(), "little")


class Gf2Matrix:
    """A list of equal-width GF(2) rows, packed into uint64 words."""

    def __init__(self, ncols: int, data: np.ndarray | None = None):
        self.ncols = ncols
        nw = _n_words(ncols)
        if data is None:
            data = np.zeros((0, nw), dtype=np.uint64)
        if data.ndim != 2 or data.shape[1] != nw:
            raise ValueError("packed data has wrong width")
        self.data = data

    @classmethod
    def from_supports(cls, ncols: int, supports: Sequence[Iterable[int]]) -> "Gf2Matrix":
        data = np.zeros((len(supports), _n_words(ncols)), dtype=np.uint64)
        for i, sup in enumerate(supports):
            for c in sup:
                if not 0 <= c < ncols:
                    raise ValueError(f"column {c} out of range")
                data[i, c >> 6] |= _ONE << np.uint64(c & 63)
        return cls(ncols, data)

    @classmethod
    def from_ints(cls, ncols: int, rows: Sequence[int]) -> "Gf2Matrix":
        data = np.zeros((len(rows), _n_words(ncols)), dtype=np.uint64)
        for i, r in enumerate(rows):
            if r < 0 or r >> ncols:
                raise ValueError(f"row {i} does not fit in {ncols} columns")
            data[i] = pack_int(ncols, r)
        return cls(ncols, data)

    @property
    def nrows(self) -> int:
        return self.data.shape[0]

    def copy(self) -> "Gf2Matrix":
        return Gf2Matrix(self.ncols, self.data.copy())

    def row_as_int(self, i: int) -> int:
        return unpack_int(self.data[i])

    def to_ints(self) -> list[int]:
        return [unpack_int(r) for r in self.data]

    def row_support(self, i: int) -> list[int]:
        out = []
        for w in range(self.data.shape[1]):
            word = int(self.data[i, w])
            while word:
                low = word & -word
                out.append((w << 6) + low.bit_length() - 1)
                word ^= low
        return out

    def rank(self) -> int:
        return self.echelon().rank

    def echelon(self) -> "Echelon":
        """Forward Gaussian elimination on a copy; the input is unmodified."""
        m = self.data.copy()
        nrows = m.shape[0]
        pivots: list[tuple[int, int]] = []
        r = 0
        for col in range(self.ncols):
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
        return Echelon(self.ncols, m[:r], pivots)


class Echelon:
    """Result of forward elimination: staircase rows, one per pivot.

    Each pivot column is zero in every other retained row at or below
    it, so reducing a vector against the pivots in order decides row
    space membership.
    """

    def __init__(self, ncols: int, rows: np.ndarray, pivots: list[tuple[int, int]]):
        self.ncols = ncols
        self.rows = rows
        self.pivots = pivots

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: np.ndarray) -> np.ndarray:
        """Residual of a packed row after reduction against the pivots."""
        v = row.copy()
        for i, col in self.pivots:
            if (int(v[col >> 6]) >> (col & 63)) & 1:
                v ^= self.rows[i]
        return v

    def reduce_batch(self, mat: np.ndarray) -> np.ndarray:
        """Residuals of many packed rows at once (vectorized)."""
        m = mat.copy()
        for i, col in self.pivots:
            w = col >> 6
            b = np.uint64(col & 63)
            hit = np.nonzero((m[:, w] >> b) & _ONE)[0]
            if hit.size:
                m[hit] ^= self.rows[i]
        return m

    def contains(self, row: np.ndarray) -> bool:
        return not self.reduce(row).any()

    def contains_int(self, value: int) -> bool:
        return self.contains(pack_int(self.ncols, value))


def rref(matrix: Gf2Matrix) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form: (packed rows, pivot column list)."""
    ech = matrix.echelon()
    m = ech.rows.copy()
    for i, col in reversed(ech.pivots):
        w = col >> 6
        b = np.uint64(col & 63)
        hit = np.nonzero((m[:i, w] >> b) & _ONE)[0]
        if hit.size:
            m[hit] ^= m[i]
    return m, [c for _, c in ech.pivots]


def nullspace(matrix: Gf2Matrix) -> Gf2Matrix:
    """Basis of the right nullspace {x : M x = 0}, one packed row per
    free column, in free-column order."""
    m, pivot_cols = rref(matrix)
    ncols = matrix.ncols
    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = np.zeros((len(free_cols), _n_words(ncols)), dtype=np.uint64)
    for bi, f in enumerate(free_cols):
        basis[bi, f >> 6] |= _ONE << np.uint64(f & 63)
        fw = f >> 6
        fb = np.uint64(f & 63)
        for ri, c in enumerate(pivot_cols):
            if (int(m[ri, fw]) >> (f & 63)) & 1:
                basis[bi, c >> 6] |= _ONE << np.uint64(c & 63)
    return Gf2Matrix(ncols, basis)



def int_rank(rows: Sequence[int]) -> int:
    """Rank of integer-encoded rows; handy for narrow matrices."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            low = (row & -row).bit_length() - 1
            p = pivots.get(low)
            if p is None:
                pivots[low] = row
                rank += 1
                break
            row ^= p
    return rank


def int_span_equal(rows_a: Sequence[int], rows_b: Sequence[int]) -> bool:
    """Whether two sets of integer-encoded rows span the same space."""
    ra = int_rank(list(rows_a))
    rb = int_rank(list(rows_b))
    return ra == rb == int_rank(list(rows_a) + list(rows_b))
