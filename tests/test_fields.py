"""FieldTables, the integer field layer: fixed values and axioms, and
hypothesis comparisons against the FieldElem reference in
field_reference on F_p for odd p <= 23, F_25, F_27, F_49 and F_{2^m}
for m <= 11."""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycodes import gf2poly
from cayleycodes.cyclic import log_tables, minimal_polynomial
from cayleycodes.errors import ConstructionError
from cayleycodes.fields import FieldTables, factorize, is_prime

import field_reference as ref

ODD_FIELDS = [(p, 1) for p in (3, 5, 7, 11, 13, 17, 19, 23)] + [(5, 2), (3, 3), (7, 2)]
BINARY_FIELDS = [(2, m) for m in range(1, 12)]
ALL_FIELDS = ODD_FIELDS + BINARY_FIELDS


@lru_cache(maxsize=None)
def tables(p, k=1):
    return FieldTables(p, k)


def power(t, a, e):
    """a^e by square and multiply on the tables' mul."""
    out = np.ones_like(a)
    while e:
        if e & 1:
            out = t.mul(out, a)
        a = t.mul(a, a)
        e >>= 1
    return out


def test_is_prime():
    assert is_prime(2) and is_prime(19) and is_prime(4093)
    assert not is_prime(1) and not is_prime(2045)
    assert factorize(2045) == {5: 1, 409: 1}


def test_ext_field_deterministic_modulus():
    assert FieldTables(2, 4).modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1, smallest encoding
    assert FieldTables(5).modulus == (0, 1)
    assert FieldTables(19).order == 19
    assert FieldTables(7, 2, (1, 0, 1)).modulus == FieldTables(7, 2).modulus


def test_non_prime_rejected():
    with pytest.raises(ConstructionError):
        FieldTables(15)
    with pytest.raises(ConstructionError):
        FieldTables(4, 2)


def test_reducible_modulus_rejected():
    with pytest.raises(ConstructionError):
        FieldTables(2, 2, (1, 0, 1))  # x^2 + 1 = (x + 1)^2
    with pytest.raises(ValueError):
        FieldTables(5, 2, (2, 0, 2))  # not monic


def test_basic_arithmetic():
    assert FieldTables(5).inv(2) == 3
    f16 = FieldTables(2, 4)
    x = 2  # the class of x
    assert f16.mul(f16.mul(x, x), f16.mul(x, x)) == 3  # x^4 = x + 1
    for t in (FieldTables(5), f16):
        assert t.mul(3, 1) == 3 and t.add(3, 0) == 3


def test_field_axioms_random_triples():
    rng = np.random.default_rng(7)
    for t in (tables(5), tables(2, 4), tables(19), tables(5, 2), tables(3, 3)):
        a, b, c = rng.integers(0, t.order, size=(3, 1000))
        assert np.array_equal(t.add(t.add(a, b), c), t.add(a, t.add(b, c)))
        assert np.array_equal(t.mul(t.mul(a, b), c), t.mul(a, t.mul(b, c)))
        assert np.array_equal(t.mul(a, t.add(b, c)), t.add(t.mul(a, b), t.mul(a, c)))
        assert not t.add(a, t.neg(a)).any()
        nz = a[a != 0]
        assert (t.mul(nz, t.inv(nz)) == 1).all()


def test_frobenius_fixed_point():
    for t in (tables(19), tables(5, 2), tables(2, 4), tables(3, 3)):
        a = np.arange(t.order)
        assert np.array_equal(power(t, a, t.order), a)


def test_cross_field_is_hard_error():
    """The reference refuses to mix fields; the tables never meet two."""
    a = ref.prime_field(5)(2)
    b = ref.prime_field(7)(2)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_embedding():
    """A constant of F_p has the same encoding in F_{p^k}, and the
    tables of F_p and F_{p^k} agree on constants: the splitting needs
    no embedding map."""
    f5, f25 = tables(5), tables(5, 2)
    a, b = np.meshgrid(np.arange(5), np.arange(5))
    assert np.array_equal(f25.add(a, b), f5.add(a, b))
    assert np.array_equal(f25.mul(a, b), f5.mul(a, b))
    assert np.array_equal(f25.inv(np.arange(1, 5)), f5.inv(np.arange(1, 5)))
    emb = ref.ext_field(5, 2).embed(ref.prime_field(5)(3))
    assert emb.coeffs == (3, 0) and emb.encode() == 3
    with pytest.raises(ValueError):
        ref.prime_field(7).embed(ref.ext_field(5, 2)((1, 1)))


def test_is_square():
    f5 = FieldTables(5)
    assert f5.is_square(4)
    assert not f5.is_square(2)
    for t in (tables(5), tables(19), tables(5, 2)):
        assert t.is_square(1)
    with pytest.raises(ValueError):
        f5.is_square(0)
    with pytest.raises(ValueError):
        f5.is_square(np.array([1, 0]))
    with pytest.raises(ValueError):
        FieldTables(2, 4).is_square(1)


def test_square_nonsquare_dichotomy():
    for t in (tables(19), tables(5, 2), tables(7), tables(3, 3)):
        a = np.arange(1, t.order)
        assert (t.is_square(a) != t.is_square(t.mul(t.nonsquare, a))).all()
        assert t.is_square(a).sum() == (t.order - 1) // 2


def test_find_nonsquare_values():
    assert FieldTables(5).nonsquare == 2
    assert FieldTables(19).nonsquare == 2
    assert FieldTables(7).nonsquare == 3
    with pytest.raises(ValueError):
        FieldTables(2, 3).nonsquare


def test_sqrt():
    f5 = FieldTables(5)
    assert f5.sqrt(4) == 2  # the root with the smaller encoding
    assert FieldTables(19).sqrt(5) == 9
    for t in (tables(19), tables(5, 2)):
        assert t.sqrt(1) == 1
        for a in range(1, t.order):
            if t.is_square(a):
                r = t.sqrt(a)
                assert t.mul(r, r) == a and r <= t.neg(r)
    with pytest.raises(ValueError):
        f5.sqrt(2)
    with pytest.raises(ValueError):
        f5.sqrt(0)


def test_sqrt_large_field():
    """F_65537, above the key limit of PglGroup: the roots of squares
    come back, the smaller of the two."""
    t = FieldTables(65537)
    rng = random.Random(3)
    for _ in range(20):
        a = rng.randrange(1, t.p)
        sq = int(t.mul(a, a))
        r = t.sqrt(sq)
        assert t.mul(r, r) == sq and r == min(a, t.p - a)


def test_primitive_element():
    assert FieldTables(5).primitive == 2
    assert FieldTables(2).primitive == 1
    f16 = FieldTables(2, 4)
    assert f16.primitive == 2  # x
    w = np.array([f16.primitive])
    assert [k for k in range(1, 16) if power(f16, w, k)[0] == 1] == [15]
    assert sorted(f16.exp[:15].tolist()) == list(range(1, 16))


def test_minimal_polynomial():
    """cyclic builds F_{2^m} on plain ints with the modulus and the
    primitive element FieldTables chooses, so the powers agree."""
    exp, log = log_tables(4)
    assert exp[1] == FieldTables(2, 4).primitive == 2  # x
    assert minimal_polynomial(exp, log, 0) == 0b11      # x + 1
    assert minimal_polynomial(exp, log, 1) == 0b10011   # the modulus
    assert minimal_polynomial(exp, log, 5) == 0b111     # x^2 + x + 1
    for m in range(1, 12):
        t = tables(2, m)
        assert log_tables(m)[0] == t.exp[:t.order - 1].tolist()


def test_minimal_polynomial_frobenius_invariance():
    # m_a == m_{a^2} for every nonzero element, exhaustively at m = 4 and 6
    for m in (4, 6):
        exp, log = log_tables(m)
        for e in range(len(exp)):
            assert minimal_polynomial(exp, log, e) == minimal_polynomial(exp, log, 2 * e)


def test_minimal_polynomial_divides_unity_poly():
    exp, log = log_tables(4)
    for e in range(15):
        assert gf2poly.mod(gf2poly.x_pow_n_minus_1(15), minimal_polynomial(exp, log, e)) == 0


def test_element_encoding_round_trip():
    for p, k in ((19, 1), (5, 2), (2, 4)):
        t, field = tables(p, k), ref.ext_field(p, k)
        for a in range(t.order):
            assert sum(c * p**i for i, c in enumerate(t.digits(a))) == a
            assert t.digits(a) == field.from_int(a).to_coeff_list()


# ---------------------------------------------------------------------------
# The tables against the FieldElem reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,k", ALL_FIELDS, ids=lambda v: str(v))
def test_modulus_and_primitive_match_reference(p, k):
    t, field = tables(p, k), ref.ext_field(p, k)
    assert t.modulus == field.modulus
    assert t.primitive == ref.primitive_element(field).encode()
    if p != 2:
        assert t.nonsquare == ref.find_nonsquare(field).encode()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_FIELDS), st.data())
def test_arithmetic_matches_reference(pk, data):
    t, field = tables(*pk), ref.ext_field(*pk)
    elems = st.integers(0, t.order - 1)
    pairs = data.draw(st.lists(st.tuples(elems, elems), min_size=1, max_size=30))
    x, y = np.array(pairs).T
    fx, fy = [field.from_int(int(a)) for a in x], [field.from_int(int(b)) for b in y]
    assert t.mul(x, y).tolist() == [(a * b).encode() for a, b in zip(fx, fy)]
    assert t.add(x, y).tolist() == [(a + b).encode() for a, b in zip(fx, fy)]
    assert t.neg(x).tolist() == [(-a).encode() for a in fx]
    nz = x != 0
    assert t.inv(x[nz]).tolist() == [a.inverse().encode() for a in fx if not a.is_zero()]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ODD_FIELDS), st.data())
def test_squares_match_reference(pk, data):
    t, field = tables(*pk), ref.ext_field(*pk)
    xs = data.draw(st.lists(st.integers(1, t.order - 1), min_size=1, max_size=20))
    assert t.is_square(np.array(xs)).tolist() == [ref.is_square(field.from_int(x)) for x in xs]
    for x in xs:
        if t.is_square(x):
            assert t.sqrt(x) == ref.sqrt(field.from_int(x)).encode()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BINARY_FIELDS), st.data())
def test_minimal_polynomial_matches_reference(pk, data):
    (exp, log), field = log_tables(pk[1]), ref.ext_field(*pk)
    x = data.draw(st.integers(1, len(exp)))
    assert minimal_polynomial(exp, log, log[x]) == ref.minimal_polynomial(field.from_int(x))
