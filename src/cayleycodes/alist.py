"""Sparse parity-check matrix interchange in the plain-text alist format.

Layout (all indices 1-based, entries space-separated):

    line 1: n m              (n columns, m rows)
    line 2: max_col_deg max_row_deg
    line 3: the n column degrees
    line 4: the m row degrees
    next n lines: row indices of each column, zero-padded to max_col_deg
    next m lines: column indices of each row, zero-padded to max_row_deg

The writer is deterministic (bit-exact for equal input), and the reader
validates both perspectives against each other.
"""

from __future__ import annotations

from typing import Optional, Sequence


def dumps_alist(row_supports: Sequence[Sequence[int]], ncols: int) -> str:
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
