"""Sparse parity-check matrix interchange in the plain-text alist format.

Layout (all indices 1-based, entries space-separated):

    line 1: n m              (n columns, m rows)
    line 2: max_col_deg max_row_deg
    line 3: the n column degrees
    line 4: the m row degrees
    next n lines: row indices of each column, zero-padded to max_col_deg
    next m lines: column indices of each row, zero-padded to max_row_deg

The writer is deterministic (bit-exact for equal input), and the reader
validates both perspectives against each other.  The writer has no loop
per entry: one sort puts the entries in row order, each row sorted, and
one stable sort of that into column order, each column's rows ascending;
both perspectives become zero-padded tables of 1-based indices, and
their decimal digits are written into one byte buffer.  The tests keep
the writer that files one entry at a time as the byte-exact reference.
"""

from __future__ import annotations

from itertools import chain
from typing import Optional, Sequence

import numpy as np


def _text(table: np.ndarray) -> np.ndarray:
    """The rows of a table of non-negative integers as ASCII lines, one
    per row, its entries in decimal separated by single spaces: digits
    and separators written into one uint8 buffer at the cumulative
    offsets of the tokens.  A table of width 0 gives empty lines."""
    lines, width = table.shape
    if width == 0:
        return np.full(lines, ord("\n"), dtype=np.uint8)
    value = table.ravel().copy()
    digits = np.ones(value.size, dtype=np.int64)
    top, ndigits = int(value.max(initial=0)), 1
    while 10 ** ndigits <= top:
        digits += value >= 10 ** ndigits
        ndigits += 1
    end = np.cumsum(digits + 1)                   # one past each token's separator
    buf = np.full(int(end[-1]) if end.size else 0, ord(" "), dtype=np.uint8)
    buf[end[width - 1::width] - 1] = ord("\n")
    for k in range(ndigits):                      # digit k, counted from the right
        live = np.flatnonzero(digits > k)
        buf[end[live] - 2 - k] = ord("0") + value[live] % 10
        value //= 10
    return buf


def dumps_alist(row_supports: Sequence[Sequence[int]], ncols: int) -> str:
    """The alist text of the matrix whose row i has a 1 in each column of
    row_supports[i] (in any order); ValueError names the first column
    out of range, in row order."""
    m = len(row_supports)
    lengths = np.fromiter(map(len, row_supports), dtype=np.int64, count=m)
    cols = np.fromiter(chain.from_iterable(row_supports), dtype=np.int64,
                       count=int(lengths.sum()))
    rows = np.repeat(np.arange(m), lengths)
    bad = (cols < 0) | (cols >= ncols)
    if bad.any():
        first = rows[np.argmax(bad)]
        raise ValueError(f"column index {cols[bad & (rows == first)].min()} out of range")
    # row order, each row sorted; then, stably, column order
    rows, cols = np.divmod(np.sort(rows * ncols + cols), max(ncols, 1))
    order = np.argsort(cols, kind="stable")
    col_deg = np.bincount(cols, minlength=ncols)
    max_col = int(col_deg.max(initial=0))
    max_row = int(lengths.max(initial=0))

    def table(key: np.ndarray, start: np.ndarray, entry: np.ndarray, shape) -> np.ndarray:
        """Zero-padded 1-based index table: entry t at row key[t], in
        slot t - start[key[t]]."""
        out = np.zeros(shape, dtype=np.int64)
        out[key, np.arange(key.size) - start[key]] = entry + 1
        return out

    by_col = table(cols[order], np.cumsum(col_deg) - col_deg, rows[order], (ncols, max_col))
    by_row = table(rows, np.cumsum(lengths) - lengths, cols, (m, max_row))
    head = f"{ncols} {m}\n{max_col} {max_row}\n".encode()
    body = np.concatenate([_text(col_deg[None]), _text(lengths[None]),
                           _text(by_col), _text(by_row)])
    return (head + body.tobytes()).decode("ascii")


def first_difference(text: str, expected: str) -> Optional[str]:
    """Where `text` departs from the alist `expected`, or None when the
    two are equal.

    Row lines are compared first and the first differing one is named
    by its 0-based row: one flipped entry changes one row line but also
    two column lines, which come earlier in the file.  When every row
    line agrees, the first differing header or column line is named.
    """
    if text == expected:
        return None
    got, want = text.splitlines(), expected.splitlines()
    n, m = (int(t) for t in want[0].split())

    def differs(i: int) -> bool:
        return i >= len(got) or got[i] != want[i]

    for ri in range(m):
        if differs(4 + n + ri):
            return f"row {ri} differs (line {5 + n + ri})"
    for i in range(4 + n):
        if differs(i):
            part = "header" if i < 4 else f"column {i - 4}"
            return f"{part} differs (line {i + 1})"
    return "line count or line endings differ"


def loads_alist(text: str) -> tuple[int, int, list[list[int]]]:
    """Parse an alist; returns (ncols, nrows, row supports 0-based).

    Raises ValueError on structural damage; cross-checks the column
    perspective against the row perspective entry by entry.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 4:
        raise ValueError("alist too short")
    try:
        n, m = (int(t) for t in lines[0].split())
        max_col, max_row = (int(t) for t in lines[1].split())
        col_deg = [int(t) for t in lines[2].split()]
        row_deg = [int(t) for t in lines[3].split()]
    except ValueError as exc:
        raise ValueError(f"malformed alist header: {exc}") from exc
    if len(col_deg) != n or len(row_deg) != m:
        raise ValueError("degree lists do not match dimensions")
    if sum(col_deg) != sum(row_deg):
        raise ValueError("column and row degree sums disagree")
    if len(lines) != 4 + n + m:
        raise ValueError(f"expected {4 + n + m} lines, found {len(lines)}")
    col_lists: list[list[int]] = []
    for ci in range(n):
        entries = [int(t) for t in lines[4 + ci].split()]
        nz = [e - 1 for e in entries if e != 0]
        if len(nz) != col_deg[ci] or any(not 0 <= r < m for r in nz):
            raise ValueError(f"column {ci} entries inconsistent with its degree")
        col_lists.append(nz)
    row_lists: list[list[int]] = []
    for ri in range(m):
        entries = [int(t) for t in lines[4 + n + ri].split()]
        nz = [e - 1 for e in entries if e != 0]
        if len(nz) != row_deg[ri] or any(not 0 <= c < n for c in nz):
            raise ValueError(f"row {ri} entries inconsistent with its degree")
        row_lists.append(nz)
    # the two perspectives must describe the same matrix
    from_cols = {(r, c) for c, rs in enumerate(col_lists) for r in rs}
    from_rows = {(r, c) for r, cs in enumerate(row_lists) for c in cs}
    if from_cols != from_rows:
        raise ValueError("row and column perspectives disagree")
    return n, m, row_lists


def read_alist(path) -> tuple[int, int, list[list[int]]]:
    with open(path) as fh:
        return loads_alist(fh.read())
