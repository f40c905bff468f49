"""GF(2) linear algebra on word-packed bit matrices.

Rows are numpy uint64 arrays, 64 columns per word, column c stored in
bit c & 63 of word c >> 6.

Gf2Matrix.echelon eliminates one 64-column word at a time, after Bard,
"Accelerating cryptanalysis with the Method of Four Russians" (2006).
A row is free until it becomes a pivot.  For word w the free rows that
are nonzero there (the block) are gathered once; on their word-w values
the next pivot column is the smallest lowest set bit, and its hit rows
are exactly those whose lowest set bit it is, so untouched columns cost
nothing.  The first hit row becomes the pivot and is XORed into the
other hit rows from word w on.  A block of at least 2^8 rows (as many
as a table has entries) defers those XORs: a mask per row records the
block pivots it absorbed, and at the end of the word each row takes its
combination of the pivot rows, as gathered, from tables of all XOR
combinations of 8 pivot rows: one XOR per 8 pivots, the same row
operations.  Pivot rows are tracked by index and compacted in place at
the end, so nothing of the size of H is allocated beyond its one copy.

Before column c every free row is zero in all columns before c: a pivot
at bit b clears b from every free row, and none has a lower set bit.
So XORing only words >= w is exact.  Row operations preserve the row
space of every prefix H[:, :k]; the pivot rows have distinct leading
columns below c and the free rows vanish on H[:, :c], so rank H[:, :c]
is the number of pivots so far, and rank H[:, :c+1] is one more exactly
when some free row has bit c, that is, when c becomes a pivot.  Column c
is a pivot iff rank H[:, :c+1] > rank H[:, :c] whatever the row
operations, so rank and pivot columns equal those of column-at-a-time
elimination.  When the pivot at column c is chosen every free row with
bit c is cleared, and later pivot rows come only from rows free then,
so column c is zero in the row of every later pivot (the Echelon
invariant): reducing a row against the pivots in order clears each
pivot column for good, and the residual is zero iff the row is in the
row space: Echelon.reduce_batch is an exact membership test, the
oracle the tests check certificates against (tanner.verify_invariance
proves invariance on every row without it).

The rank of the parity-check matrix H runs this kernel only on what is
left of a star-elimination residual once its columns of weight 1 or 2
are contracted (tanner.residual_rank): 1933 x 9586 of 6434 x 14234 for
the [6,4] inner code, all 15424 x 22264 for [20,12], which has no such
column, and nothing for the x^4 + 1 codes.  H itself is never packed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_ONE = np.uint64(1)
_TABLE_BITS = 8        # pivots per Four-Russians table (2^8 entries)
_CHUNK_ROWS = 256      # rows per step wherever a step copies rows of H


def _n_words(ncols: int) -> int:
    return (ncols + 63) >> 6


def _trailing_zeros(words: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each word; 64 for a zero word."""
    return np.bitwise_count(~words & (words - _ONE))


def _apply_tables(m: np.ndarray, idx: np.ndarray, block: list[int],
                  comb: np.ndarray, start: int) -> None:
    """XOR into row idx[i] of m, from word `start` on, the block pivot
    rows named by the bits of comb[i], read from Four-Russians tables."""
    pivots = m[idx[block], start:]
    mask = np.uint64((1 << _TABLE_BITS) - 1)
    for g in range(0, len(block), _TABLE_BITS):
        rows = pivots[g:g + _TABLE_BITS]
        table = np.zeros((1 << len(rows), rows.shape[1]), dtype=np.uint64)
        for t, row in enumerate(rows):
            table[1 << t:2 << t] = table[:1 << t] ^ row
        key = (comb >> np.uint64(g)) & mask
        sel = np.flatnonzero(key)
        for s in range(0, sel.size, _CHUNK_ROWS):
            part = sel[s:s + _CHUNK_ROWS]
            m[idx[part], start:] ^= table[key[part]]


class Gf2Matrix:
    """A list of equal-width GF(2) rows, packed into uint64 words."""

    def __init__(self, ncols: int, data: np.ndarray):
        self.ncols = ncols
        if data.ndim != 2 or data.shape[1] != _n_words(ncols):
            raise ValueError("packed data has wrong width")
        self.data = data

    @classmethod
    def from_supports(cls, ncols: int, indptr: np.ndarray, indices: np.ndarray) -> "Gf2Matrix":
        """The CSR pair's matrix: row i has a 1 in each column of
        indices[indptr[i]:indptr[i + 1]].  One scatter of all (row, word)
        pairs."""
        cols = indices.astype(np.int64)
        out = (cols < 0) | (cols >= ncols)
        if out.any():
            raise ValueError(f"column {cols[np.argmax(out)]} out of range")
        lengths = np.diff(indptr)
        data = np.zeros((lengths.size, _n_words(ncols)), dtype=np.uint64)
        rows = np.repeat(np.arange(lengths.size), lengths)
        np.bitwise_or.at(data, (rows, cols >> 6), _ONE << (cols & 63).astype(np.uint64))
        return cls(ncols, data)

    @property
    def nrows(self) -> int:
        return self.data.shape[0]

    def row_support(self, i: int) -> list[int]:
        out = []
        for w in range(self.data.shape[1]):
            word = int(self.data[i, w])
            while word:
                low = word & -word
                out.append((w << 6) + low.bit_length() - 1)
                word ^= low
        return out

    def echelon(self) -> "Echelon":
        """Forward elimination on a copy, one 64-column word at a time
        (kernel and proofs in the module docstring)."""
        m = self.data.copy()
        nrows = m.shape[0]
        free = np.ones(nrows, dtype=bool)
        pivot_rows, pivot_cols = [], []
        for w in range(m.shape[1]):
            if len(pivot_rows) == nrows:
                break
            idx = np.flatnonzero(free & (m[:, w] != 0))
            if idx.size == 0:
                continue
            word = m[idx, w]
            low = _trailing_zeros(word)
            # comb[i]: the block pivots row idx[i] absorbed, when deferred
            deferred = idx.size >= 1 << _TABLE_BITS
            comb = np.zeros(idx.size, dtype=np.uint64)
            block: list[int] = []
            while True:
                j = int(low.argmin())
                b = int(low[j])
                if b == 64:
                    break
                p = int(idx[j])
                pivot_rows.append(p)
                pivot_cols.append((w << 6) + b)
                free[p] = False
                low[j] = 64
                hit = np.flatnonzero(low == b)
                if hit.size:
                    if deferred:
                        comb[hit] ^= comb[j] | _ONE << np.uint64(len(block))
                    else:
                        m[idx[hit], w:] ^= m[p, w:]
                    word[hit] ^= word[j]
                    low[hit] = _trailing_zeros(word[hit])
                block.append(j)
            if deferred:
                m[idx, w] = word
                _apply_tables(m, idx, block, comb, w + 1)
        # move the pivot rows to the front in ascending row order: row
        # keep[i] >= i, so no step overwrites a row a later step reads
        keep = np.sort(np.array(pivot_rows, dtype=np.int64))
        for s in range(0, keep.size, _CHUNK_ROWS):
            step = keep[s:s + _CHUNK_ROWS]
            m[s:s + step.size] = m[step]
        position = np.searchsorted(keep, pivot_rows).tolist()
        return Echelon(self.ncols, m[:keep.size], list(zip(position, pivot_cols)))


class Echelon:
    """Result of forward elimination: one row per pivot.  pivots lists
    (index into rows, pivot column) by increasing column; each pivot
    column is zero in the row of every later pivot, so reducing a vector
    against the pivots in order decides row space membership."""

    def __init__(self, ncols: int, rows: np.ndarray, pivots: list[tuple[int, int]]):
        self.ncols = ncols
        self.rows = rows
        self.pivots = pivots

    @property
    def rank(self) -> int:
        return len(self.pivots)

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
