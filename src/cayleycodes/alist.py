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
alist as integer tables whose rows are its lines (tanner.alist_tables
makes those of H from the graph and the dual words, a block of vertices
at a time), and has no loop per entry: decimal_lines hands the digits
of each table to a sink (a file, or matches_file), _BLOCK cells at a
time.  The tests keep the writer that files one entry at a time as the
byte-exact reference.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Optional

import numpy as np

_BLOCK = 1 << 14       # table entries per block of digit cells


def decimal_lines(table: np.ndarray, write: Callable | None = None) -> bytearray:
    """The rows of a table of non-negative int32 values as ASCII lines,
    one per row, its entries in decimal separated by single spaces,
    handed to write block by block (returned as a bytearray without it).
    Per block of _BLOCK entries, read row-major, each entry gets a row of
    uint8 cells, as many digits as the block's largest entry has and its
    separator; the leading zeros are masked out and the kept cells
    written in order.  A table of width 0 gives empty lines."""
    out = bytearray()
    write = write or out.extend
    lines, width = table.shape
    flat = table.reshape(-1)
    write(b"\n" * (lines if width == 0 else 0))
    for start in range(0, flat.size, _BLOCK):
        value = flat[start:start + _BLOCK].astype(np.int32)
        ndigits = len(str(int(value.max())))
        cells = np.full((value.size, ndigits + 1), ord(" "), dtype=np.uint8)
        cells[(width - 1 - start) % width::width, ndigits] = ord("\n")
        keep = np.ones(cells.shape, dtype=bool)
        for k in range(ndigits - 1, -1, -1):      # digit cells, right to left
            digit = np.divmod(value, 10, out=(value, None))[1]   # the quotient in place
            digit += ord("0")
            cells[:, k] = digit
            if k:
                keep[:, k - 1] = value > 0
        write(cells[keep].data)
    return out


def dumps_alist(tables: Iterable[np.ndarray], write: Callable | None = None) -> bytearray:
    """The alist whose lines are the rows of `tables`, in file order (the
    two header lines, the two degree lines, the column lines, the row
    lines, each line's indices 1-based and zero-padded to the largest
    degree), handed to write table by table as by decimal_lines."""
    out = bytearray()
    for table in tables:
        decimal_lines(table, write or out.extend)
    return out


def matches_file(path, emit: Callable[[Callable], object]) -> bool:
    """Whether the file at path holds exactly the bytes that emit(write)
    hands to write, read block by block beside them, never whole."""
    with open(path, "rb") as fh:
        differ = []            # set at the first block that differs; no block is read after it
        emit(lambda block: differ or fh.read(len(block)) == block or differ.append(True))
        return not differ and not fh.read(1)


def first_difference(data: bytes, expected: bytes) -> Optional[str]:
    """Where the alist bytes `data` depart from `expected`, or None when
    the two are equal.

    The lines are those of bytes.splitlines (b"\r\n" and b"\r" become
    b"\n" first), read one at a time.  Row lines come first and the first
    differing one is named by its 0-based row: one flipped entry changes
    one row line but also two column lines, which come earlier in the
    file.  When every row line agrees, the first differing header or
    column line is named.
    """
    if data == expected:
        return None
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if data and not data.endswith(b"\n"):
        data += b"\n"         # the last line, without its line break
    n = int(expected[:expected.index(b" ")])
    got, want = (map(re.Match.group, re.finditer(rb".*\n", b)) for b in (data, expected))
    head = None
    for i, line in enumerate(want):
        if next(got, None) != line:
            if i >= 4 + n:
                return f"row {i - 4 - n} differs (line {i + 1})"
            head = i if head is None else head
    return ("line count or line endings differ" if head is None else
            f"{'header' if head < 4 else f'column {head - 4}'} differs (line {head + 1})")


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
