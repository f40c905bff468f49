"""Primes and polynomials over F_p on plain Python integers.

Polynomials are coefficient lists, lowest degree first.  This is the
layer both field routes share, and it imports no numpy: the BCH inner
codes of cyclic (pure integer work) choose their modulus and primitive
element here, and FieldTables chooses the same ones from the same
functions.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence


def is_prime(n: int) -> bool:
    """Trial-division primality test for n < 2**32."""
    if n >= 1 << 32:
        raise ValueError(f"primality test limited to n < 2**32, got {n}")
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (n < 2**63 desk scale)."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(p: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_mod(p: int, a: Sequence[int], m: Sequence[int]) -> list[int]:
    a = _poly_trim(list(a))
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - dm
        for j, y in enumerate(m):
            a[shift + j] = (a[shift + j] - c * y) % p
        _poly_trim(a)
    return a


def _poly_gcd(p: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_mod(p, a, b)
    return a


def _poly_pow_mod(p: int, base: Sequence[int], e: int, m: Sequence[int]) -> list[int]:
    result = [1]
    base = _poly_mod(p, base, m)
    while e:
        if e & 1:
            result = _poly_mod(p, _poly_mul(p, result, base), m)
        base = _poly_mod(p, _poly_mul(p, base, base), m)
        e >>= 1
    return result


def is_irreducible(p: int, coeffs: Sequence[int]) -> bool:
    """Irreducibility of a monic polynomial over F_p.

    A reducible polynomial of degree k has an irreducible factor of some
    degree i <= k/2, and every irreducible of degree i divides
    x^(p^i) - x; so the polynomial is irreducible iff it shares no
    factor with x^(p^i) - x for all i <= k/2.
    """
    f = _poly_trim(list(coeffs))
    k = len(f) - 1
    if k < 1 or f[-1] != 1:
        raise ValueError("modulus must be monic of degree >= 1")
    if k == 1:
        return True
    xp = [0, 1]
    for _ in range(k // 2):
        xp = _poly_pow_mod(p, xp, p, f)  # now x^(p^i) mod f
        g = list(xp)
        # subtract x
        while len(g) < 2:
            g.append(0)
        g[1] = (g[1] - 1) % p
        g = _poly_gcd(p, f, _poly_trim(g))
        if len(g) > 1:
            return False
    return True


def irreducible_polys(p: int, k: int) -> Iterator[tuple[int, ...]]:
    """Monic irreducibles of degree k over F_p, in encoding order.

    The encoding of f = x^k + sum(c_i x^i) is sum(c_i p^i); iterating
    encodings 0..p^k-1 gives the deterministic lexicographic-from-the-
    top order used everywhere a modulus is chosen.
    """
    for n in range(p**k):
        coeffs = [n // p**i % p for i in range(k)] + [1]
        if is_irreducible(p, coeffs):
            yield tuple(coeffs)


def smallest_primitive(p: int, k: int, modulus: Sequence[int]) -> list[int]:
    """Coefficients of the smallest encoding a with a^(n/r) != 1 in
    F_p[x]/(modulus) for every prime r dividing n = p^k - 1, the order
    of F*: the primitive element that is the base of every log table."""
    n = p**k - 1
    for a in range(1, p**k):
        coeffs = [a // p**i % p for i in range(k)]
        if all(_poly_pow_mod(p, coeffs, n // r, modulus) != [1] for r in factorize(n)):
            return coeffs
    raise AssertionError("unreachable: F* is cyclic")
