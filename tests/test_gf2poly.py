from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from cayleycodes import gf2poly as gp

from gf2_reference import cyclic_shift, from_coeffs, gcd, to_coeffs, weight

polys = st.integers(min_value=0, max_value=(1 << 48) - 1)
nonzero_polys = st.integers(min_value=1, max_value=(1 << 48) - 1)


def lcm(a, b):
    """Least common multiple from gcd and exact division; exercises both."""
    if a == 0 or b == 0:
        return 0
    return gp.mul(gp.divmod_(a, gcd(a, b))[0], b)


def test_degree_weight():
    assert gp.degree(0) == -1
    assert gp.degree(0b10011) == 4
    assert weight(0b10011) == 3


def test_known_products():
    assert gp.mul(0b11, 0b11) == 0b101                # (x+1)^2 = x^2 + 1
    assert gp.divmod_(0b101, 0b11) == (0b11, 0)
    assert gcd(0b10011, 0b111) == 1                # distinct irreducibles
    assert lcm(0b11, 0b11) == 0b11


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        gp.divmod_(0b101, 0)


@given(polys, polys, polys)
@settings(deadline=None, max_examples=200)
def test_ring_axioms(a, b, c):
    assert gp.mul(a, b) == gp.mul(b, a)
    assert gp.mul(gp.mul(a, b), c) == gp.mul(a, gp.mul(b, c))
    assert gp.mul(a ^ b, c) == gp.mul(a, c) ^ gp.mul(b, c)


@given(polys, nonzero_polys)
@settings(deadline=None, max_examples=200)
def test_divmod_recomposes(a, b):
    q, r = gp.divmod_(a, b)
    assert gp.mul(q, b) ^ r == a
    assert gp.degree(r) < gp.degree(b)


@given(nonzero_polys, nonzero_polys)
@settings(deadline=None, max_examples=200)
def test_lcm_gcd_product(a, b):
    assert gp.mul(lcm(a, b), gcd(a, b)) == gp.mul(a, b)


@given(nonzero_polys)
@settings(deadline=None, max_examples=200)
def test_reciprocal(a):
    r = gp.reciprocal(a)
    if a & 1:  # nonzero constant term: degree is preserved and the map involutive
        assert gp.degree(r) == gp.degree(a)
        assert gp.reciprocal(r) == a


def test_cyclic_shift():
    assert cyclic_shift(0b001, 3) == 0b010
    assert cyclic_shift(0b100, 3) == 0b001
    assert cyclic_shift(0b110, 3, 2) == 0b011


def test_coeffs_and_hex_round_trip():
    a = 0b1101001
    assert from_coeffs(to_coeffs(a)) == a
    assert gp.from_hex(gp.to_hex(a)) == a
    assert to_coeffs(0b101, length=5) == [1, 0, 1, 0, 0]


def test_x_pow_n_minus_1():
    assert gp.x_pow_n_minus_1(3) == 0b1001
