"""Polynomials over GF(2) encoded as Python integers.

Bit i of the integer is the coefficient of x^i, so the zero polynomial
is 0, x^4 + x + 1 is 0b10011 = 19, and the canonical no-trailing-zeros
form is automatic.  All functions are pure.
"""

from __future__ import annotations


def degree(a: int) -> int:
    """Degree of a, with degree(0) == -1."""
    return a.bit_length() - 1


def mul(a: int, b: int) -> int:
    """Carry-less product."""
    r = 0
    while a:
        if a & 1:
            r ^= b
        a >>= 1
        b <<= 1
    return r


def divmod_(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of a by b, deg(remainder) < deg(b)."""
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    db = degree(b)
    q = 0
    while degree(a) >= db:
        shift = degree(a) - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def mod(a: int, b: int) -> int:
    return divmod_(a, b)[1]


def x_pow_n_minus_1(n: int) -> int:
    """x^n - 1 over GF(2), i.e. x^n + 1."""
    return (1 << n) | 1


def reciprocal(a: int) -> int:
    """Coefficients reversed over the degree of a: x^deg(a) * a(1/x)."""
    if a == 0:
        return 0
    d = degree(a)
    r = 0
    for i in range(d + 1):
        if (a >> i) & 1:
            r |= 1 << (d - i)
    return r


def to_hex(a: int) -> str:
    """Hex string of the coefficient bit string, lowest degree in the
    least significant nibble (plain hex of the integer encoding)."""
    return format(a, "x")


def from_hex(s: str) -> int:
    return int(s, 16)
