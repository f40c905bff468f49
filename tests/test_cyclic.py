import random
from fractions import Fraction

import pytest

from cayleycodes import cyclic, gf2poly
from cayleycodes.cyclic import (CyclicCode, bch_code, bch_designed_params,
                                bch_generator, check_good_inner_code,
                                double_length, dual_basis_rows, dual_generator,
                                interleave, min_distance)
from cayleycodes.errors import ConstructionError
from cayleycodes.gf2 import int_rank

from gf2_reference import from_coeffs


def random_codeword(code, rng):
    """A uniformly random codeword: a random combination of the basis."""
    word = 0
    for b in code.basis():
        if rng.getrandbits(1):
            word ^= b
    return word


def test_bch_generators_m4():
    assert bch_generator(4, 1) == 0b10011
    assert bch_generator(4, 2) == 0b10011           # m_w = m_{w^2}
    # lcm(m_w, m_{w^3}) = (x^4+x+1)(x^4+x^3+x^2+x+1), expanded by hand
    assert bch_generator(4, 3) == 0b111010001
    with pytest.raises(ValueError):
        bch_generator(4, 20)
    with pytest.raises(ValueError):
        bch_generator(4, 0)


def test_code_from_generator():
    code = bch_code(4, 2)
    assert (code.n, code.dim) == (15, 11)
    full = CyclicCode(7, 1)
    assert full.dim == 7
    with pytest.raises(ConstructionError):
        CyclicCode(7, gf2poly.x_pow_n_minus_1(7))   # the zero ideal
    with pytest.raises(ConstructionError):
        CyclicCode(7, 0b111)                        # does not divide x^7 - 1


def test_dim_equals_shift_basis_rank():
    for code in (bch_code(4, 2), bch_code(4, 3), CyclicCode(20, gf2poly.mul(0b10001, 0b11111))):
        assert int_rank(code.basis()) == code.dim == code.n - gf2poly.degree(code.h)


def test_cyclic_closure():
    rng = random.Random(13)
    for code in (bch_code(4, 2), CyclicCode(20, gf2poly.mul(0b10001, 0b11111))):
        for _ in range(100):
            w = random_codeword(code, rng)
            assert code.contains(w)
            assert code.contains(code.shift(w))


def test_bch_designed_params():
    p = bch_designed_params(4, 2)
    assert (p.n, p.k, p.d_lower) == (15, 11, 3)
    assert bch_designed_params(4, 1).d_lower == 2
    p11 = bch_designed_params(11, 139)
    assert p11.n == 2047 and p11.k >= 1283 and p11.d_lower == 140
    assert p11.k == 2047 - gf2poly.degree(bch_generator(11, 139))


def test_bch_exact_distance_meets_designed_bound():
    # exhaustive for r = 1..4 at m = 4
    for r in range(1, 5):
        code = bch_code(4, r)
        rep = min_distance(code, "exact")
        assert rep.value >= r + 1


def test_interleave():
    assert interleave(0, 0, 3) == 0
    # n = 3 pattern: (a0, b1, a2, b0, a1, b2)
    a, b = 0b101, 0b011
    out = interleave(a, b, 3)
    expected = [1, 1, 1, 1, 0, 0]  # a0=1, b1=1, a2=1, b0=1, a1=0, b2=0
    assert out == from_coeffs(expected)
    rng = random.Random(4)
    for _ in range(50):
        a, b = rng.getrandbits(15), rng.getrandbits(15)
        assert interleave(a, b, 15).bit_count() == a.bit_count() + b.bit_count()
    with pytest.raises(ValueError):
        interleave(1, 1, 4)


def test_double_length_structure():
    code = bch_code(4, 2)
    doubled = double_length(code)
    assert (doubled.n, doubled.dim) == (30, 22)
    assert doubled.h == gf2poly.mul(code.h, code.h)
    # interleaved pairs are codewords; spanning-set shifts stay inside
    rng = random.Random(9)
    for _ in range(100):
        a, b = random_codeword(code, rng), random_codeword(code, rng)
        w = interleave(a, b, code.n)
        assert doubled.contains(w)
        assert doubled.contains(doubled.shift(w))
    # the unit ideal doubles to the unit ideal
    assert double_length(CyclicCode(15, 1)).h == 1
    with pytest.raises(ValueError):
        double_length(doubled)  # even length rejected


def test_double_length_distance():
    code = bch_code(4, 2)
    rep = min_distance(code, "exact")
    assert rep.value == 3
    doubled = double_length(code)
    # distance is preserved: the interleaved image of a minimum-weight
    # word is a weight-3 codeword of the doubled code
    witness = interleave(rep.witness, 0, code.n)
    assert doubled.contains(witness) and witness.bit_count() == 3
    # full enumeration of the [30, 22] code confirms equality
    assert min_distance(doubled, "exact").value == 3


def test_min_distance_modes():
    rep3 = min_distance(CyclicCode(3, 0b111), "exact")
    assert rep3.value == 3 and rep3.witness == 0b111
    doubled = double_length(bch_code(4, 2))
    sampled = min_distance(doubled, "sampled", trials=2000, seed=1)
    assert sampled.value >= 3
    assert doubled.contains(sampled.witness)
    big = CyclicCode(4094, gf2poly.mul(bch_generator(11, 139), bch_generator(11, 139)))
    with pytest.raises(ValueError):
        min_distance(big, "exact")


def test_dual_generator():
    # repetition code of length 3: dual generated by x + 1
    rep = CyclicCode(3, 0b111)
    assert dual_generator(rep) == 0b11
    rows = dual_basis_rows(rep)
    assert int_rank(rows) == 2
    for r in rows:
        assert r.bit_count() % 2 == 0  # even-weight words
    # [15, 11]: degree-11 dual generator, 4 independent shifts
    code = bch_code(4, 2)
    d = dual_generator(code)
    assert gf2poly.degree(d) == 11
    rows = dual_basis_rows(code)
    assert len(rows) == 4 and int_rank(rows) == 4
    # orthogonality of every shift against every basis word
    for j in range(code.n):
        shifted = gf2poly.cyclic_shift(d, code.n, j)
        for bas in code.basis():
            assert (shifted & bas).bit_count() % 2 == 0
    # dual of the full space is empty
    assert dual_generator(CyclicCode(7, 1)) == 0
    assert dual_basis_rows(CyclicCode(7, 1)) == []


def test_check_good_inner_code_paper_instance():
    res = check_good_inner_code(4093, 11, 8)
    assert res.r == 139
    assert res.params.n == 4094 and res.params.k == 2686
    assert res.params.rate == Fraction(1343, 2047)
    assert res.params.rate >= Fraction(5, 8)
    assert res.params.d_lower == 140
    assert res.rate_ok and res.distance_ok and res.passed
    # the exact comparison underlying distance_ok: 140^2 > 4 * 4093
    assert 140 * 140 > 4 * 4093


def test_check_good_inner_code_small_a_fails_distance():
    res = check_good_inner_code(4093, 11, 3)
    assert res.rate_ok
    assert not res.distance_ok
    with pytest.raises(Exception):
        cyclic.require_inner_thresholds(res)


def test_check_good_inner_code_constraint_errors():
    with pytest.raises(ConstructionError):
        check_good_inner_code(2045, 10, 8)  # 2045 = 5 * 409, not a prime power
    with pytest.raises(ConstructionError):
        check_good_inner_code(4093, 10, 8)  # constraint q + 1 = 2(2^m - 1)
    with pytest.raises(ValueError):
        check_good_inner_code(4093, 11, 2)


def test_code_file_round_trip(tmp_path):
    code = bch_code(4, 3)
    path = tmp_path / "c.code"
    cyclic.save_code(code, path)
    loaded = cyclic.load_code(path)
    assert loaded == code
    bad = path.read_text().replace("15 7", "15 8")
    (tmp_path / "bad.code").write_text(bad)
    with pytest.raises(ValueError):
        cyclic.load_code(tmp_path / "bad.code")
