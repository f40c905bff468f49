"""Slow reference for the alist writer, and its input from a CSR pair.

cayleycodes.alist.dumps_alist writes the tables it is handed, digits
block by block; first_difference works on the bytes.  This module
keeps the writer that files one entry at a time and joins one string
per line, the lines of a table, one string per line, and the line
comparison on whole split files, as the oracles the tests compare them
against; and csr_tables, the transposition of any CSR pair into the
writer's tables by one sort, which hands it the toy matrices.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np


def csr_tables(indptr, indices, ncols: int) -> list[np.ndarray]:
    """The alist tables of the matrix whose row i has a 1 in each column of
    indices[indptr[i]:indptr[i + 1]], written in that order; the keys
    col * m + row, sorted, give the column lines.  ValueError names the
    first column out of range, in row order, the smallest of its row."""
    cols, lengths, m = np.asarray(indices), np.diff(indptr), len(indptr) - 1
    rows = np.repeat(np.arange(m), lengths)
    bad = (cols < 0) | (cols >= ncols)
    if bad.any():
        first = rows[np.argmax(bad)]
        raise ValueError(f"column index {cols[bad & (rows == first)].min()} out of range")
    key = np.sort(cols.astype(np.int64) * m + rows)      # column order, rows ascending
    col_deg = np.bincount(cols, minlength=ncols)

    def padded(degrees, values):
        table = np.zeros((degrees.size, degrees.max(initial=0)), dtype=np.int32)
        line = np.repeat(np.arange(degrees.size), degrees)
        table[line, np.arange(values.size) - (np.cumsum(degrees) - degrees)[line]] = values + 1
        return table

    return [np.array([[ncols, m], [col_deg.max(initial=0), lengths.max(initial=0)]]),
            col_deg[None], lengths[None], padded(col_deg, key % max(m, 1)), padded(lengths, cols)]


def reference_dumps_alist(row_supports: Sequence[Sequence[int]], ncols: int) -> str:
    m = len(row_supports)
    cols: list[list[int]] = [[] for _ in range(ncols)]
    rows: list[list[int]] = []
    for ri, sup in enumerate(row_supports):
        sup = sorted(sup)
        rows.append(sup)
        for c in sup:
            if not 0 <= c < ncols:
                raise ValueError(f"column index {c} out of range")
            cols[c].append(ri)
    max_col = max((len(c) for c in cols), default=0)
    max_row = max((len(r) for r in rows), default=0)
    out = [f"{ncols} {m}", f"{max_col} {max_row}"]
    out.append(" ".join(str(len(c)) for c in cols))
    out.append(" ".join(str(len(r)) for r in rows))
    for c in cols:
        padded = [str(ri + 1) for ri in c] + ["0"] * (max_col - len(c))
        out.append(" ".join(padded))
    for r in rows:
        padded = [str(ci + 1) for ci in r] + ["0"] * (max_row - len(r))
        out.append(" ".join(padded))
    return "\n".join(out) + "\n"


def reference_decimal_lines(table) -> str:
    """The rows of an integer table as lines of space-separated decimals."""
    return "".join(" ".join(str(x) for x in row) + "\n" for row in table.tolist())


def reference_first_difference(data: bytes, expected: bytes,
                               split: Callable = bytes.splitlines) -> Optional[str]:
    """alist.first_difference on whole split files, compared line by line,
    row lines first.  split=decoded_lines splits the decoded files with
    str.splitlines, which on files of digits, spaces, b"\n" and b"\r"
    splits where bytes.splitlines does."""
    if data == expected:
        return None
    got, want = split(data), split(expected)
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


def decoded_lines(data: bytes) -> list[str]:
    return data.decode().splitlines()
