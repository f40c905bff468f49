"""Sparse parity-check matrix interchange in the plain-text alist format.

Layout (all indices 1-based, entries space-separated):

    line 1: n m              (n columns, m rows)
    line 2: max_col_deg max_row_deg
    line 3: the n column degrees
    line 4: the m row degrees
    next n lines: row indices of each column, zero-padded to max_col_deg
    next m lines: column indices of each row, zero-padded to max_row_deg

The writer is deterministic (bit-exact for equal input), and the reader
validates both perspectives against each other.  The writer takes the
matrix as a CSR pair and has no loop per entry: the entries are already
in row order, so one stable sort puts them in column order, each
column's rows ascending; both perspectives become zero-padded int32
tables of 1-based indices, which decimal_lines writes.  The tests keep
the writer that files one entry at a time as the byte-exact reference.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

_BLOCK = 1 << 14       # table entries per block of digit cells


def decimal_lines(table: np.ndarray, out: bytearray | None = None) -> bytearray:
    """The rows of a table of non-negative int32 values as ASCII lines,
    one per row, its entries in decimal separated by single spaces,
    appended to `out` (a new bytearray by default), which is returned.
    Per block of _BLOCK entries, read row-major, each entry gets a row of
    uint8 cells, as many digits as the block's largest entry has and its
    separator; the leading zeros are masked out and the kept cells
    appended in order.  A table of width 0 gives empty lines."""
    out = bytearray() if out is None else out
    lines, width = table.shape
    flat = table.reshape(-1)
    out += b"\n" * (lines if width == 0 else 0)
    for start in range(0, flat.size, _BLOCK):
        value = flat[start:start + _BLOCK].astype(np.int32)
        ndigits = len(str(int(value.max())))
        cells = np.full((value.size, ndigits + 1), ord(" "), dtype=np.uint8)
        cells[(width - 1 - start) % width::width, ndigits] = ord("\n")
        keep = np.ones(cells.shape, dtype=bool)
        for k in range(ndigits - 1, -1, -1):      # digit cells, right to left
            cells[:, k] = value % 10 + ord("0")
            value //= 10
            if k:
                keep[:, k - 1] = value > 0
        out += cells[keep].data
    return out


def dumps_alist(indptr: np.ndarray, indices: np.ndarray, ncols: int) -> bytearray:
    """The alist of the matrix whose row i has a 1 in each column of
    indices[indptr[i]:indptr[i + 1]], written in that order (the rows of
    H are sorted); ValueError names the first column out of range, in row
    order, the smallest of its row."""
    cols, lengths = indices, np.diff(indptr)
    m = lengths.size
    rows = np.repeat(np.arange(m, dtype=np.int32), lengths)
    bad = (cols < 0) | (cols >= ncols)
    if bad.any():
        first = rows[np.argmax(bad)]
        raise ValueError(f"column index {cols[bad & (rows == first)].min()} out of range")
    col_deg = np.bincount(cols, minlength=ncols)
    max_col = int(col_deg.max(initial=0))
    max_row = int(lengths.max(initial=0))

    def table(key: np.ndarray, start: np.ndarray, entry: np.ndarray, shape) -> np.ndarray:
        """Zero-padded table of 1-based indices: entry[t] at row key[t], slot t - start[key[t]]."""
        slot = np.arange(key.size, dtype=np.int32)
        slot -= start.astype(np.int32)[key]
        table = np.zeros(shape, dtype=np.int32)
        table[key, slot] = entry
        return table

    out = bytearray(f"{ncols} {m}\n{max_col} {max_row}\n".encode())
    decimal_lines(lengths[None], decimal_lines(col_deg[None], out))
    order = np.argsort(cols, kind="stable")       # column order, rows ascending
    key, entry = cols[order], rows[order] + 1
    del order
    decimal_lines(table(key, np.cumsum(col_deg) - col_deg, entry, (ncols, max_col)), out)
    del key, entry
    return decimal_lines(table(rows, indptr[:-1], cols + 1, (m, max_row)), out)


def first_difference(data: bytes, expected: bytes) -> Optional[str]:
    """Where the alist bytes `data` depart from `expected`, or None when
    the two are equal; they are decoded only when they differ.

    Row lines are compared first and the first differing one is named
    by its 0-based row: one flipped entry changes one row line but also
    two column lines, which come earlier in the file.  When every row
    line agrees, the first differing header or column line is named.
    """
    if data == expected:
        return None
    got, want = data.decode().splitlines(), expected.decode().splitlines()
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
