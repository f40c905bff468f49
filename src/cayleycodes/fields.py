"""Finite fields F_p and F_{p^k} on integer encodings.

An element of F_{p^k} = F_p[x]/(f), f monic irreducible of degree k, is
a residue of degree < k with coefficients c_i in 0..p-1 (lowest degree
first), encoded as the integer sum(c_i * p^i).  0 and 1 encode 0 and 1,
and a constant of F_p has the same encoding in every extension over p.
The encoding order is the canonical order: the modulus, the nonsquare,
the square root and the primitive element chosen below are each the
one of smallest encoding.

FieldTables does all arithmetic on encodings, vectorized over numpy
arrays; the dense polynomial helpers serve only the modulus and the
tables.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .errors import ConstructionError


def is_prime(n: int) -> bool:
    """Trial-division primality test for n < 2**32."""
    if n >= 1 << 32:
        raise ValueError(f"primality test limited to n < 2**32, got {n}")
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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


# ---------------------------------------------------------------------------
# Dense polynomial arithmetic over F_p (coefficient lists, lowest degree
# first).  Only used for modulus bookkeeping, not in element hot paths.
# ---------------------------------------------------------------------------

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
        coeffs = []
        m = n
        for _ in range(k):
            coeffs.append(m % p)
            m //= p
        coeffs.append(1)
        if is_irreducible(p, coeffs):
            yield tuple(coeffs)


# ---------------------------------------------------------------------------
# The field on integer encodings
# ---------------------------------------------------------------------------

class FieldTables:
    """F_{p^k} on integer encodings, vectorized over numpy int64 arrays.

    The modulus defaults to the monic irreducible of smallest encoding,
    x for k = 1.  Products and inverses go through log/antilog tables
    of the primitive element of smallest encoding (the antilog table is
    doubled so a sum of two logs needs no reduction); sums and negatives
    act digit by digit in base p, which is coefficient-wise arithmetic
    mod p.  mul, inv, add, neg and is_square broadcast like numpy
    arithmetic.
    """

    def __init__(self, p: int, k: int = 1, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise ConstructionError(f"p = {p} is not prime")
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        if modulus is None:
            modulus = (0, 1) if k == 1 else next(irreducible_polys(p, k))
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not is_irreducible(p, modulus):
            raise ConstructionError(f"modulus {list(modulus)} is reducible over F_{p}")
        self.p, self.k, self.modulus, self.order = p, k, modulus, p**k
        n = self.order - 1
        times_g = self._times(self._smallest_primitive()).tolist()
        powers = [1]
        for _ in range(n - 1):
            powers.append(times_g[powers[-1]])
        self.exp = np.array(powers + powers, dtype=np.int64)
        self.log = np.zeros(self.order, dtype=np.int64)
        self.log[self.exp[:n]] = np.arange(n)

    def _times(self, g: list[int]) -> np.ndarray:
        """The encoding of x g for every encoding x: the product of the
        coefficient rows with g, reduced from the top degree down with
        x^k = -(f - x^k)."""
        p, k = self.p, self.k
        x = np.arange(self.order, dtype=np.int64)
        digits = np.stack([x // p**i % p for i in range(k)], axis=1)
        prod = np.zeros((self.order, 2 * k - 1), dtype=np.int64)
        for j, c in enumerate(g):
            prod[:, j:j + k] += c * digits
        low = np.array(self.modulus[:k], dtype=np.int64)
        for j in range(2 * k - 2, k - 1, -1):
            prod[:, j - k:j] = (prod[:, j - k:j] - prod[:, j:j + 1] * low) % p
        return prod[:, :k] % p @ p ** np.arange(k, dtype=np.int64)

    def digits(self, x) -> list[int]:
        """The k coefficients of x, lowest degree first."""
        return [int(x) // self.p**i % self.p for i in range(self.k)]

    def _smallest_primitive(self) -> list[int]:
        """Coefficients of the smallest a with a^(n/r) != 1 for every
        prime r dividing n = p^k - 1, the order of F*."""
        n = self.order - 1
        for a in range(1, self.order):
            coeffs = self.digits(a)
            if all(_poly_pow_mod(self.p, coeffs, n // r, self.modulus) != [1]
                   for r in factorize(n)):
                return coeffs
        raise AssertionError("unreachable: F* is cyclic")

    @property
    def primitive(self) -> int:
        """The primitive element of smallest encoding, base of the logs."""
        return int(self.exp[1])

    def mul(self, x, y):
        return np.where((x == 0) | (y == 0), 0, self.exp[self.log[x] + self.log[y]])

    def inv(self, x):
        if np.any(x == 0):
            raise ZeroDivisionError("inversion of zero")
        return self.exp[self.order - 1 - self.log[x]]

    def _digitwise(self, op, *xs):
        if self.k == 1:
            return op(*xs) % self.p
        p, place, out = self.p, 1, 0
        for _ in range(self.k):
            out = out + op(*(x // place % p for x in xs)) % p * place
            place *= p
        return out

    def add(self, x, y):
        return self._digitwise(np.add, x, y)

    def neg(self, x):
        return self._digitwise(np.negative, x)

    # -- squares ------------------------------------------------------------

    def is_square(self, x):
        """Quadratic residuosity of nonzero elements: g^l is a square
        exactly when l is even, since the order p^k - 1 of F* is even in
        odd characteristic.  Zero is rejected (its residuosity is
        ambiguous), and so is characteristic 2."""
        if self.p == 2:
            raise ValueError("residuosity is undefined in characteristic 2")
        if np.any(np.asarray(x) == 0):
            raise ValueError("is_square(0) is ambiguous; caller must decide")
        return self.log[x] % 2 == 0

    @property
    def nonsquare(self) -> int:
        """The nonsquare of smallest encoding: the first odd log."""
        if self.p == 2:
            raise ValueError("every element is a square in characteristic 2")
        return int(np.argmax(self.log % 2 == 1))

    def sqrt(self, x) -> int:
        """The square root of a nonzero square x with the smaller
        encoding: g^(l/2) for x = g^l, or its negative."""
        if not self.is_square(x):
            raise ValueError(f"{x} is not a square in F_{self.order}")
        root = self.exp[self.log[x] // 2]
        return int(min(root, self.neg(root)))

    # -- F_2 structure --------------------------------------------------------

    def minimal_polynomial(self, x) -> int:
        """Minimal polynomial over F_2 of a nonzero x in F_{2^k}, as a
        GF(2) polynomial in integer encoding.

        The product of (X - b) over the Frobenius orbit {x, x^2, x^4,
        ...}; its coefficients are fixed by squaring, so they lie in F_2
        and encode as 0 or 1.  Sums in characteristic 2 are XORs of
        encodings.
        """
        if self.p != 2:
            raise ValueError("minimal_polynomial is defined over F_2 fields only")
        if x == 0:
            raise ValueError("minimal polynomial of 0 rejected (it is x)")
        orbit, b = [x], self.mul(x, x)
        while b != x:
            orbit.append(b)
            b = self.mul(b, b)
        poly = np.ones(1, dtype=np.int64)
        for root in orbit:
            poly = np.append(0, poly) ^ np.append(self.mul(poly, root), 0)
        if (poly > 1).any():
            raise AssertionError("Frobenius-orbit product left the base field")
        return int(sum(1 << i for i, c in enumerate(poly.tolist()) if c))
