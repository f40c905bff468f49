"""Slow reference for the alist writer.

cayleycodes.alist.dumps_alist sorts and files every entry in numpy and
writes the digits into one byte buffer.  This module keeps the writer
that files one entry at a time and joins one string per line, and the
lines of a table, one string per line, as the oracles the tests
compare its bytes against.
"""

from __future__ import annotations

from typing import Sequence


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
