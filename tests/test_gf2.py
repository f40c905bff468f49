import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycodes.cyclic import CyclicCode
from cayleycodes.gf2 import Gf2Matrix, int_rank
from cayleycodes.gf2poly import x_pow_n_minus_1
from cayleycodes.graphs import generate_group
from cayleycodes.tanner import build_parity_check

from gf2_reference import (contains_int, csr, from_ints, gcd, int_span_equal, pack_int, reduce,
                           reference_echelon, reference_from_supports, to_ints, unpack_int)
from group_reference import ZnGroup


def test_pack_round_trip():
    v = (1 << 200) | (1 << 63) | 1
    assert unpack_int(pack_int(250, v)) == v
    m = from_ints(250, [v, 0, 3])
    assert to_ints(m) == [v, 0, 3]
    assert m.row_support(0) == [0, 63, 200]


def test_rank_identity_and_repeats():
    eye = from_ints(5, [1 << i for i in range(5)])
    assert eye.echelon().rank == 5
    rep = from_ints(5, [0b10101, 0b10101])
    assert rep.echelon().rank == 1


def test_rank_known_construction():
    # 50 seeded independent rows plus 50 sums of pairs: rank stays 50
    rng = random.Random(42)
    basis = [(1 << i) | (rng.getrandbits(50) << 50) for i in range(50)]
    sums = [basis[rng.randrange(50)] ^ basis[rng.randrange(50)] for _ in range(50)]
    m = from_ints(100, basis + sums)
    assert m.echelon().rank == 50


def test_rank_input_unmodified():
    rows = [0b110, 0b011, 0b101]
    m = from_ints(3, rows)
    before = to_ints(m)
    assert m.echelon().rank == 2
    assert to_ints(m) == before


def test_echelon_membership():
    m = from_ints(6, [0b000111, 0b011100, 0b110001])
    ech = m.echelon()
    assert contains_int(ech, 0b000111 ^ 0b011100)
    assert contains_int(ech, 0)
    assert not contains_int(ech, 0b000001)


def test_reduce_batch_matches_single():
    rng = random.Random(1)
    rows = [rng.getrandbits(120) for _ in range(40)]
    m = from_ints(120, rows)
    ech = m.echelon()
    probes = [rng.getrandbits(120) for _ in range(10)] + rows[:5]
    batch = np.stack([pack_int(120, p) for p in probes])
    red = ech.reduce_batch(batch)
    for i, p in enumerate(probes):
        assert unpack_int(red[i]) == unpack_int(reduce(ech, pack_int(120, p)))


def test_int_rank_and_span():
    assert int_rank([0b11, 0b01, 0b10]) == 2
    assert int_span_equal([0b11, 0b01], [0b10, 0b01])
    assert not int_span_equal([0b11], [0b10, 0b01])


def test_from_supports_bounds():
    for bad in ([[4]], [[0, 1], [-1]]):
        with pytest.raises(ValueError, match=f"column {bad[-1][-1]} out of range"):
            Gf2Matrix.from_supports(4, *csr(bad))
        with pytest.raises(ValueError, match=f"column {bad[-1][-1]} out of range"):
            reference_from_supports(4, bad)
    with pytest.raises(ValueError):
        from_ints(4, [0b10000])
    assert Gf2Matrix.from_supports(0, *csr([[], []])).data.shape == (2, 0)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 300).flatmap(lambda ncols: st.tuples(
    st.just(ncols),
    st.lists(st.lists(st.integers(0, ncols - 1), max_size=12), max_size=20))))
def test_from_supports_matches_reference(case):
    """One scatter of all (row, word) pairs packs the same bits as the
    loop, repeated columns included; int32 and int64 indices agree."""
    ncols, supports = case
    indptr, indices = csr(supports)
    packed = Gf2Matrix.from_supports(ncols, indptr, indices).data
    assert np.array_equal(packed, reference_from_supports(ncols, supports).data)
    wide = Gf2Matrix.from_supports(ncols, indptr, indices.astype(np.int64)).data
    assert np.array_equal(wide, packed)


# ---------------------------------------------------------------------------
# the word-block kernel against the column-at-a-time reference
# ---------------------------------------------------------------------------

WIDTHS = [1, 63, 64, 65, 130]


@st.composite
def random_rows(draw):
    """Dense or sparse random rows of a width around the word size, with
    zero rows and duplicated rows mixed in."""
    width = draw(st.sampled_from(WIDTHS))
    nrows = draw(st.integers(0, 48))
    density = draw(st.sampled_from([0.02, 0.1, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.random((nrows, width)) < density
    rows = [int("".join("1" if b else "0" for b in row[::-1]) or "0", 2) for row in bits]
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), 0)
    for _ in range(draw(st.integers(0, 4))):
        if rows:
            rows.insert(draw(st.integers(0, len(rows))),
                        rows[draw(st.integers(0, len(rows) - 1))])
    return width, rows


@st.composite
def star_rows(draw):
    """Rows of the star-structured H of a Z_n Cayley graph with a random
    cyclic inner code of length equal to the degree."""
    n = draw(st.integers(5, 40))
    steps = draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=5))
    steps = sorted(steps | {n - s for s in steps})
    graph = generate_group(ZnGroup(n), steps, cap=n + 1)
    deg = graph.degree
    h = gcd(draw(st.integers(1, (1 << deg) - 1)), x_pow_n_minus_1(deg))
    inst = build_parity_check(graph, CyclicCode(deg, h))
    return inst.n, to_ints(inst.matrix)


def _check_against_reference(width, rows, probe_seed):
    mat = from_ints(width, rows)
    before = mat.data.copy()
    ech = mat.echelon()
    ref = reference_echelon(mat)
    assert np.array_equal(mat.data, before)

    assert ech.rank == ref.rank == int_rank(rows)
    cols = [c for _, c in ech.pivots]
    assert cols == [c for _, c in ref.pivots]
    assert sorted(i for i, _ in ech.pivots) == list(range(ech.rank))
    assert ech.rows.shape == (ech.rank, before.shape[1])

    # the Echelon invariant: each row is zero before its pivot column and
    # set at it, and each pivot column is zero in every later pivot's row
    ints = [unpack_int(r) for r in ech.rows]
    for k, (i, c) in enumerate(ech.pivots):
        assert ints[i] >> c & 1 and ints[i] & ((1 << c) - 1) == 0
        assert all(not ints[j] >> c & 1 for j, _ in ech.pivots[k + 1:])

    # reduce_batch decides membership exactly as int_rank does
    rng = random.Random(probe_seed)
    probes = [rng.getrandbits(width) for _ in range(6)]
    for _ in range(6):
        member = 0
        for r in rows:
            if rng.random() < 0.5:
                member ^= r
        probes += [member, member ^ (1 << rng.randrange(width))]
    residual = ech.reduce_batch(np.stack([pack_int(width, p) for p in probes]))
    for p, res in zip(probes, residual):
        assert (not res.any()) == (int_rank(rows + [p]) == ech.rank)


@settings(max_examples=150, deadline=None)
@given(random_rows(), st.integers(0, 2**32 - 1))
def test_kernel_matches_reference_random(case, probe_seed):
    _check_against_reference(*case, probe_seed)


@st.composite
def tall_low_rank_rows(draw):
    """256 to 400 random combinations of a few random rows: the first
    word's block is large enough for the Four-Russians table path, and a
    wrong row operation would leave the span."""
    width = draw(st.sampled_from([65, 130, 200]))
    rank = draw(st.integers(1, min(width, 90)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    basis = [rng.getrandbits(width) | 1 for _ in range(rank)]
    rows = []
    for _ in range(draw(st.integers(256, 400))):
        row = 0
        for b in basis:
            if rng.random() < 0.5:
                row ^= b
        rows.append(row)
    return width, rows


@settings(max_examples=12, deadline=None)
@given(tall_low_rank_rows(), st.integers(0, 2**32 - 1))
def test_kernel_matches_reference_table_blocks(case, probe_seed):
    _check_against_reference(*case, probe_seed)


@settings(max_examples=40, deadline=None)
@given(star_rows(), st.integers(0, 2**32 - 1))
def test_kernel_matches_reference_star(case, probe_seed):
    _check_against_reference(*case, probe_seed)
