import random

import pytest

from cayleycodes.errors import ConstructionError
from cayleycodes.fields import (FiniteField, ext_field, factorize,
                                find_nonsquare, is_prime, is_square,
                                minimal_polynomial, prime_field,
                                primitive_element, sqrt)


def test_is_prime():
    assert is_prime(2) and is_prime(19) and is_prime(4093)
    assert not is_prime(1) and not is_prime(2045)
    assert factorize(2045) == {5: 1, 409: 1}


def test_ext_field_deterministic_modulus():
    f16 = ext_field(2, 4)
    assert f16.modulus == (1, 1, 0, 0, 1)  # x^4 + x + 1, smallest encoding
    assert ext_field(5, 1).modulus == (0, 1)
    assert ext_field(19, 1).order == 19


def test_non_prime_rejected():
    with pytest.raises(ConstructionError):
        prime_field(15)
    with pytest.raises(ConstructionError):
        ext_field(4, 2)


def test_reducible_modulus_rejected():
    with pytest.raises(ConstructionError):
        FiniteField(2, 2, (1, 0, 1))  # x^2 + 1 = (x + 1)^2


def test_basic_arithmetic():
    f5 = prime_field(5)
    assert f5(2).inverse() == f5(3)
    f16 = ext_field(2, 4)
    x = f16((0, 1))
    assert x**3 * x == f16((1, 1))  # x^4 = x + 1 mod the modulus
    for field in (f5, f16):
        a = field(3)
        assert a * field.one == a


def test_field_axioms_random_triples():
    rng = random.Random(7)
    for field in (prime_field(5), ext_field(2, 4), prime_field(19), ext_field(5, 2)):
        elems = list(field.elements())
        for _ in range(1000):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == field.zero
            if not a.is_zero():
                assert a * a.inverse() == field.one


def test_frobenius_fixed_point():
    rng = random.Random(11)
    for field in (prime_field(19), ext_field(5, 2), ext_field(2, 4)):
        elems = list(field.elements())
        for _ in range(50):
            a = rng.choice(elems)
            assert a**field.order == a


def test_cross_field_is_hard_error():
    a = prime_field(5)(2)
    b = prime_field(7)(2)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_embedding():
    f5 = prime_field(5)
    f25 = ext_field(5, 2)
    a = f5(3)
    emb = f25.embed(a)
    assert emb.coeffs == (3, 0)
    with pytest.raises(ValueError):
        prime_field(7).embed(f25((1, 1)))


def test_is_square():
    f5 = prime_field(5)
    assert is_square(f5(4))
    assert not is_square(f5(2))
    for field in (prime_field(5), prime_field(19), ext_field(5, 2)):
        assert is_square(field.one)
    with pytest.raises(ValueError):
        is_square(f5(0))
    with pytest.raises(ValueError):
        is_square(ext_field(2, 4).one)


def test_square_nonsquare_dichotomy():
    for field in (prime_field(19), ext_field(5, 2), prime_field(7)):
        n = find_nonsquare(field)
        for a in field.nonzero_elements():
            assert is_square(a) != is_square(n * a)


def test_find_nonsquare_values():
    assert find_nonsquare(prime_field(5)) == prime_field(5)(2)
    assert find_nonsquare(prime_field(19)) == prime_field(19)(2)
    assert find_nonsquare(prime_field(7)) == prime_field(7)(3)


def test_sqrt():
    f5 = prime_field(5)
    assert sqrt(f5(4)) == f5(2)  # the lexicographically smaller root
    f19 = prime_field(19)
    assert sqrt(f19(5)) == f19(9)
    for field in (f19, ext_field(5, 2)):
        assert sqrt(field.one) == field.one
        for a in field.nonzero_elements():
            if is_square(a):
                r = sqrt(a)
                assert r * r == a
    with pytest.raises(ValueError):
        sqrt(f5(2))


def test_sqrt_large_field_tonelli_shanks():
    # order above the exhaustive threshold exercises the other branch
    field = prime_field(65537)
    rng = random.Random(3)
    for _ in range(20):
        a = field(rng.randrange(1, field.p))
        sq = a * a
        r = sqrt(sq)
        assert r * r == sq
        assert r.encode() <= (-r).encode()


def test_primitive_element():
    f5 = prime_field(5)
    assert primitive_element(f5) == f5(2)
    f2 = prime_field(2)
    assert primitive_element(f2) == f2.one
    f16 = ext_field(2, 4)
    w = primitive_element(f16)
    assert w == f16((0, 1))
    assert [k for k in range(1, 16) if w ** k == f16.one] == [15]  # order 15


def test_minimal_polynomial():
    f16 = ext_field(2, 4)
    w = primitive_element(f16)
    assert minimal_polynomial(f16.one) == 0b11            # x + 1
    assert minimal_polynomial(w) == 0b10011               # the modulus
    assert minimal_polynomial(w**5) == 0b111              # x^2 + x + 1
    with pytest.raises(ValueError):
        minimal_polynomial(f16.zero)
    with pytest.raises(ValueError):
        minimal_polynomial(prime_field(5)(2))


def test_minimal_polynomial_frobenius_invariance():
    # m_a == m_{a^2} for every nonzero element, exhaustively at m = 4 and 6
    for m in (4, 6):
        field = ext_field(2, m)
        for a in field.nonzero_elements():
            assert minimal_polynomial(a) == minimal_polynomial(a * a)


def test_minimal_polynomial_divides_unity_poly():
    from cayleycodes import gf2poly
    field = ext_field(2, 4)
    n = field.order - 1
    for a in field.nonzero_elements():
        mp = minimal_polynomial(a)
        assert gf2poly.mod(gf2poly.x_pow_n_minus_1(n), mp) == 0


def test_element_encoding_round_trip():
    for field in (prime_field(19), ext_field(5, 2), ext_field(2, 4)):
        for a in field.elements():
            assert field.from_int(a.encode()) == a
        assert field(field.p + 1) == field.one  # int maps through Z -> F_p
