"""Slow reference for the alist writer.

cayleycodes.alist.dumps_alist sorts and files every entry in numpy and
writes the digits block by block; first_difference works on the bytes.
This module keeps the writer that files one entry at a time and joins
one string per line, the lines of a table, one string per line, and
the line comparison on whole split files, as the oracles the tests
compare them against.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence


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
