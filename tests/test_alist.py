from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycodes import alist
from cayleycodes.alist import (decimal_lines, dumps_alist, first_difference, loads_alist,
                               matches_file)

from alist_reference import (csr_tables, decoded_lines, reference_decimal_lines,
                             reference_dumps_alist, reference_first_difference)
from gf2_reference import csr


def dumps(rows, ncols) -> str:
    """The alist text of a matrix given by its rows, each sorted first,
    as the rows of H are."""
    return dumps_alist(csr_tables(*csr([sorted(r) for r in rows]), ncols)).decode("ascii")


def test_round_trip():
    rows = [[0, 3, 5], [1, 2], [0, 1, 2, 6]]
    text = dumps(rows, 7)
    n, m, back = loads_alist(text)
    assert (n, m) == (7, 3)
    assert back == [sorted(r) for r in rows]


def test_deterministic():
    """The bytes depend on the matrix only, not on the integer widths of
    the CSR pair."""
    indptr, indices = csr([[0, 3, 5], [1, 2]])
    want = dumps_alist(csr_tables(indptr, indices, 6))
    assert want == reference_dumps_alist([[5, 3, 0], [2, 1]], 6).encode()
    for ptr in (indptr, indptr.astype(np.int32)):
        for idx in (indices, indices.astype(np.int64)):
            assert dumps_alist(csr_tables(ptr, idx, 6)) == want


def test_header_shape():
    text = dumps([[0, 1], [1, 2]], 4)
    lines = text.splitlines()
    assert lines[0] == "4 2"
    assert lines[1] == "2 2"       # max column degree, max row degree
    assert lines[2] == "1 2 1 0"   # column degrees
    assert lines[3] == "2 2"       # row degrees
    # per-column row indices, 1-based, zero padded
    assert lines[4] == "1 0"
    assert lines[5] == "1 2"
    assert lines[6] == "2 0"
    assert lines[7] == "0 0"
    # per-row column indices
    assert lines[8] == "1 2"
    assert lines[9] == "2 3"


def test_damage_detected():
    text = dumps([[0, 3, 5], [1, 2]], 7)
    lines = text.splitlines()
    # inconsistent perspectives: move a row entry without the column view
    bad = lines[:]
    row_line = 4 + 7  # first row-perspective line
    bad[row_line] = bad[row_line].replace("4", "5", 1)
    with pytest.raises(ValueError):
        loads_alist("\n".join(bad))
    with pytest.raises(ValueError):
        loads_alist("1 1\n")


def test_column_out_of_range():
    with pytest.raises(ValueError):
        dumps([[9]], 7)


@st.composite
def matrices(draw, max_cols=12, max_rows=12):
    """Row supports in any order, repeats and empty rows included, over a
    drawn number of columns (0 and 1 among them)."""
    ncols = draw(st.integers(0, max_cols))
    support = st.lists(st.integers(0, max(ncols - 1, 0)), max_size=6 if ncols else 0)
    rows = draw(st.lists(support, max_size=max_rows))
    return rows, ncols


@given(matrices())
@settings(deadline=None, max_examples=300)
def test_writer_matches_the_reference_bytes(matrix):
    """Empty rows, repeated columns, m = 0, columns of degree 0, and max
    degree 0 (every degree line empty but still ended by a newline)."""
    rows, ncols = matrix
    assert dumps(rows, ncols) == reference_dumps_alist(rows, ncols)


@given(matrices(max_cols=30, max_rows=30), st.integers(1, 40), st.data())
@settings(deadline=None, max_examples=200)
def test_writer_matches_the_reference_across_blocks(matrix, block, data):
    """decimal_lines writes _BLOCK table entries at a time, read
    row-major; with blocks of 1 to 40 entries the tables, the one-line
    degree tables among them, are cut inside and at the ends of lines.
    Whole alists and drawn tables, the values across digit counts."""
    rows, ncols = matrix
    shape = data.draw(st.tuples(st.integers(0, 12), st.integers(0, 12)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    table = (10 ** rng.integers(0, 6, shape) * rng.random(shape)).astype(np.int32)
    with mock.patch.object(alist, "_BLOCK", block):
        assert dumps(rows, ncols) == reference_dumps_alist(rows, ncols)
        assert decimal_lines(table) == reference_decimal_lines(table).encode()


@given(st.sampled_from([9, 10, 11, 99, 100, 101, 999, 1000, 1001]), st.data())
@settings(deadline=None, max_examples=60)
def test_writer_matches_the_reference_across_digit_counts(size, data):
    """Indices whose digit count changes, 9/10, 99/100 and 999/1000, in
    the row lines (columns) and in the column lines (rows); the rows
    come from a drawn seed, up to 4 entries each, some empty."""
    ncols = data.draw(st.integers(size - 1, size + 1))
    m = data.draw(st.integers(size - 1, size + 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = [rng.integers(0, ncols, rng.integers(0, 5)).tolist() for _ in range(m)]
    rows[-1] += [ncols - 1, 0]
    assert dumps(rows, ncols) == reference_dumps_alist(rows, ncols)


@pytest.mark.parametrize("rows,ncols", [
    ([], 0), ([], 5), ([[]], 0), ([[], [], []], 4), ([[0] * 10], 1),
])
def test_writer_edge_shapes(rows, ncols):
    text = dumps(rows, ncols)
    assert text == reference_dumps_alist(rows, ncols)
    assert text.count("\n") == 4 + ncols + len(rows)


@given(st.lists(st.lists(st.integers(-12, 20), max_size=5), min_size=1, max_size=6))
@settings(deadline=None, max_examples=200)
def test_out_of_range_names_the_first_bad_column_in_row_order(rows):
    """csr_tables, the writer's input from a CSR pair, names the first
    row's first column outside range(7) once sorted, as the reference
    does, whatever the order of the row in the CSR pair."""
    try:
        want = reference_dumps_alist(rows, 7)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            csr_tables(*csr(rows), 7)
    else:
        assert dumps(rows, 7) == want


def test_first_difference_names_row_before_columns():
    rows = [[0, 3, 5], [1, 2], [0, 1, 2, 6]]
    text = dumps(rows, 7)

    def where(got: str):
        return first_difference(got.encode(), text.encode())

    assert where(text) is None
    # one moved entry changes row 1 and two column lines that come first
    moved = dumps([[0, 3, 5], [1, 4], [0, 1, 2, 6]], 7)
    assert where(moved) == "row 1 differs (line 13)"
    lines = text.splitlines()
    lines[5] += " "                      # column 1, row lines untouched
    assert where("\n".join(lines) + "\n") == "column 1 differs (line 6)"
    lines[1] = "9 9"
    assert where("\n".join(lines) + "\n") == "header differs (line 2)"
    assert where(text.rstrip("\n")) == "line count or line endings differ"
    assert where(text.replace("\n", "\r\n")) == "line count or line endings differ"
    assert where(text.rsplit("\n", 2)[0]) == "row 2 differs (line 14)"


@given(matrices(max_cols=30, max_rows=30), st.integers(1, 40), st.data())
@settings(deadline=None, max_examples=200)
def test_sink_gets_the_bytes_returned_without_one(matrix, block, data):
    """dumps_alist and decimal_lines handed a sink write the bytes they
    return without one, those of the reference, block by block, and
    return nothing themselves; tables of width 0 (no columns, or every
    degree 0) among them."""
    rows, ncols = matrix
    indptr, indices = csr([sorted(r) for r in rows])
    shape = data.draw(st.tuples(st.integers(0, 12), st.integers(0, 3)))
    table = np.arange(np.prod(shape), dtype=np.int32).reshape(shape) * 37
    with mock.patch.object(alist, "_BLOCK", block):
        for write_to, want in [
                (lambda write: dumps_alist(csr_tables(indptr, indices, ncols), write),
                 reference_dumps_alist(rows, ncols)),
                (lambda write: decimal_lines(table, write), reference_decimal_lines(table))]:
            blocks = []
            assert write_to(blocks.append) == b""
            assert b"".join(blocks) == write_to(None) == want.encode()


def test_width_zero_tables_and_bad_columns_with_a_sink():
    blocks = []
    for shape, want in [((3, 0), b"\n\n\n"), ((0, 4), b""), ((0, 0), b"")]:
        decimal_lines(np.zeros(shape, dtype=np.int32), blocks.append)
        assert b"".join(blocks) == want
        blocks.clear()
    with pytest.raises(ValueError, match="^column index 9 out of range$"):
        dumps_alist(csr_tables(*csr([[1, 9]]), 7), blocks.append)
    assert blocks == []              # refused before any byte is written


def test_matches_file_compares_every_byte(tmp_path):
    """matches_file reads the file beside the blocks of the writer: equal
    bytes match; one extra trailing byte, one byte missing, one changed
    byte or an empty file do not."""
    indptr, indices = csr([[0, 3, 5], [1, 2], [0, 1, 2, 6]])
    whole = bytes(dumps_alist(csr_tables(indptr, indices, 7)))
    path = tmp_path / "code.alist"
    with mock.patch.object(alist, "_BLOCK", 3):
        for data, same in [(whole, True), (whole + b"\n", False), (whole + b"0", False),
                           (whole[:-1], False), (whole[:9] + b"7" + whole[10:], False),
                           (b"", False)]:
            path.write_bytes(data)
            assert matches_file(
                path, lambda write: dumps_alist(csr_tables(indptr, indices, 7), write)) is same


_PIECES = [b"\n", b"\r", b"\r\n", b" ", b"0", b"1", b"7", b"\x0b", b"\x0c", b"\x1c",
           b"\x1e", "\x85".encode(), "\u2028".encode(), "\xe9".encode(), b"\xff"]


@given(matrices(max_cols=9, max_rows=9), st.data())
@settings(deadline=None, max_examples=400)
def test_first_difference_on_bytes_matches_the_reference(matrix, data):
    """first_difference, on the bytes a line at a time, names what the
    reference names on the whole split files: after up to three
    insertions, deletions or replacements among digits, spaces, line
    breaks, other control and non-ASCII characters, and bytes that are
    no UTF-8, which are no line breaks.  On digits, spaces and line
    breaks it also names what the decoded files split by str.splitlines
    give."""
    rows, ncols = matrix
    expected = bytes(dumps(rows, ncols), "ascii")
    got = bytearray(expected)
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(got)))
        cut = data.draw(st.integers(0, 2))
        got[at:at + cut] = data.draw(st.sampled_from(_PIECES + [b""]))
    where = first_difference(bytes(got), bytearray(expected))
    assert where == reference_first_difference(bytes(got), expected)
    if set(got) <= set(b"0123456789 \r\n"):
        assert where == reference_first_difference(bytes(got), expected, decoded_lines)
