"""Finite fields F_p and F_{p^k} with canonical, immutable elements.

An element of F_{p^k} is a residue mod a monic irreducible modulus of
degree k, stored as a coefficient tuple of length k (lowest degree
first, each coefficient in 0..p-1).  Equality is coefficient-wise, so
elements hash and compare cheaply.  Elements carry a reference to their
parent field; mixing fields in arithmetic is a hard error, never a
silent coercion.  The only supported cross-field map is the explicit
embedding of a prime-field constant into an extension over the same p.

Enumeration / canonical order of field elements is by integer encoding
sum(c_i * p^i), which is also the order used to pick deterministic
moduli, nonsquares, square roots and primitive elements.
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
# Fields and elements
# ---------------------------------------------------------------------------

class FieldElem:
    """Immutable element of a FiniteField; a canonical residue."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: "FiniteField", coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs
        self._hash = hash((field._key, coeffs))

    def _check(self, other: "FieldElem") -> None:
        if not isinstance(other, FieldElem):
            raise TypeError(f"expected FieldElem, got {type(other).__name__}")
        if other.field._key != self.field._key:
            raise ValueError(
                f"cross-field arithmetic: {self.field} vs {other.field}; "
                "use an explicit embedding"
            )

    def __add__(self, other):
        self._check(other)
        return FieldElem(self.field, self.field._add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check(other)
        return FieldElem(self.field, self.field._sub(self.coeffs, other.coeffs))

    def __mul__(self, other):
        self._check(other)
        return FieldElem(self.field, self.field._mul(self.coeffs, other.coeffs))

    def __truediv__(self, other):
        self._check(other)
        return FieldElem(
            self.field, self.field._mul(self.coeffs, self.field._inv(other.coeffs))
        )

    def __neg__(self):
        p = self.field.p
        return FieldElem(self.field, tuple((-c) % p for c in self.coeffs))

    def __pow__(self, e: int):
        field = self.field
        if e < 0:
            return FieldElem(field, field._pow(field._inv(self.coeffs), -e))
        return FieldElem(field, field._pow(self.coeffs, e))

    def inverse(self) -> "FieldElem":
        return FieldElem(self.field, self.field._inv(self.coeffs))

    def is_zero(self) -> bool:
        return self.coeffs == self.field._zero

    def encode(self) -> int:
        """Integer encoding sum(c_i * p^i); the canonical order key."""
        n = 0
        for c in reversed(self.coeffs):
            n = n * self.field.p + c
        return n

    def to_coeff_list(self) -> list[int]:
        """Coefficient vector, lowest degree first (serialization form)."""
        return list(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, FieldElem)
            and other.field._key == self.field._key
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.field.k == 1:
            return f"{self.coeffs[0]}"
        return f"{list(self.coeffs)}"


class FiniteField:
    """F_{p^k} as residues of F_p[x] mod a monic irreducible of degree k.

    k = 1 with modulus x is the prime field F_p.  The modulus defaults
    to the irreducible of smallest integer encoding, so field
    construction is deterministic.
    """

    def __init__(self, p: int, k: int = 1, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise ConstructionError(f"p = {p} is not prime")
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        if modulus is None:
            if k == 1:
                modulus = (0, 1)
            else:
                modulus = next(irreducible_polys(p, k))
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not is_irreducible(p, modulus):
            raise ConstructionError(f"modulus {list(modulus)} is reducible over F_{p}")
        self.p = p
        self.k = k
        self.modulus = modulus
        self.order = p**k
        self._key = (p, k, modulus)
        self._zero = (0,) * k
        self._one = (1,) + (0,) * (k - 1)
        # reduction table: x^(k+j) mod modulus for j = 0..k-2
        self._red: list[tuple[int, ...]] = []
        if k > 1:
            top = tuple((-c) % p for c in modulus[:k])  # x^k mod f
            cur = top
            for _ in range(k - 1):
                self._red.append(cur)
                # multiply cur by x, reduce
                shifted = (0,) + cur[: k - 1]
                carry = cur[k - 1]
                if carry:
                    shifted = tuple((s + carry * t) % p for s, t in zip(shifted, top))
                cur = shifted

    # -- element construction ------------------------------------------------

    def __call__(self, value) -> FieldElem:
        if isinstance(value, FieldElem):
            if value.field._key != self._key:
                raise ValueError(f"element of {value.field} is not in {self}")
            return value
        if isinstance(value, int):
            # integers map through Z -> F_p -> field, i.e. to constants
            return FieldElem(self, (value % self.p,) + (0,) * (self.k - 1))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.k:
            raise ValueError("coefficient vector longer than extension degree")
        return FieldElem(self, coeffs + (0,) * (self.k - len(coeffs)))

    def from_int(self, n: int) -> FieldElem:
        if not 0 <= n < self.order:
            raise ValueError(f"encoding {n} out of range for {self}")
        coeffs = []
        for _ in range(self.k):
            coeffs.append(n % self.p)
            n //= self.p
        return FieldElem(self, tuple(coeffs))

    @property
    def zero(self) -> FieldElem:
        return FieldElem(self, self._zero)

    @property
    def one(self) -> FieldElem:
        return FieldElem(self, self._one)

    def elements(self) -> Iterator[FieldElem]:
        """All elements in canonical (encoding) order."""
        for n in range(self.order):
            yield self.from_int(n)

    def nonzero_elements(self) -> Iterator[FieldElem]:
        for n in range(1, self.order):
            yield self.from_int(n)

    def embed(self, a: FieldElem) -> FieldElem:
        """Embed a prime-field constant over the same p into this field."""
        if a.field._key == self._key:
            return a
        if a.field.k == 1 and a.field.p == self.p:
            return FieldElem(self, (a.coeffs[0],) + (0,) * (self.k - 1))
        raise ValueError(f"no embedding of {a.field} into {self}")

    # -- coefficient arithmetic ----------------------------------------------

    def _add(self, a, b):
        p = self.p
        if self.k == 1:
            return ((a[0] + b[0]) % p,)
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        if self.k == 1:
            return ((a[0] - b[0]) % p,)
        return tuple((x - y) % p for x, y in zip(a, b))

    def _mul(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return ((a[0] * b[0]) % p,)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = [c % p for c in prod[:k]]
        for j in range(k - 1):
            c = prod[k + j] % p
            if c:
                red = self._red[j]
                for i in range(k):
                    out[i] = (out[i] + c * red[i]) % p
        return tuple(out)

    def _pow(self, a, e: int):
        r = self._one
        while e:
            if e & 1:
                r = self._mul(r, a)
            a = self._mul(a, a)
            e >>= 1
        return r

    def _inv(self, a):
        if a == self._zero:
            raise ZeroDivisionError(f"inversion of zero in {self}")
        if self.k == 1:
            return (pow(a[0], self.p - 2, self.p),)
        return self._pow(a, self.order - 2)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FiniteField) and other._key == self._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.k == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.k} (mod {list(self.modulus)})"


def prime_field(p: int) -> FiniteField:
    return FiniteField(p)


def ext_field(p: int, k: int, modulus: Sequence[int] | None = None) -> FiniteField:
    """F_{p^k} with a deterministic modulus when none is given."""
    return FiniteField(p, k, modulus)


# ---------------------------------------------------------------------------
# Multiplicative structure
# ---------------------------------------------------------------------------

def is_square(a: FieldElem) -> bool:
    """Quadratic residuosity of a nonzero element, via the Euler test
    a^((p^k - 1)/2) == 1.  Odd characteristic only; zero is rejected
    because its residuosity is ambiguous."""
    field = a.field
    if field.p == 2:
        raise ValueError("residuosity is undefined in characteristic 2")
    if a.is_zero():
        raise ValueError("is_square(0) is ambiguous; caller must decide")
    return field._pow(a.coeffs, (field.order - 1) // 2) == field._one


def find_nonsquare(field: FiniteField) -> FieldElem:
    """Smallest non-square in canonical enumeration order."""
    if field.p == 2:
        raise ValueError("every element is a square in characteristic 2")
    for a in field.nonzero_elements():
        if not is_square(a):
            return a
    raise AssertionError("unreachable: nonsquares exist in odd characteristic")


def sqrt(a: FieldElem) -> FieldElem:
    """A square root of a, deterministically the root with the smaller
    canonical encoding.  Exhaustive search for fields up to 2^16
    elements, Tonelli-Shanks above."""
    field = a.field
    if field.p == 2:
        raise ValueError("characteristic-2 square roots are out of scope")
    if a.is_zero():
        raise ValueError("sqrt(0) rejected (is_square(0) is ambiguous)")
    if not is_square(a):
        raise ValueError(f"{a!r} is not a square in {field}")
    if field.order <= 1 << 16:
        for b in field.nonzero_elements():
            if b * b == a:
                return b
        raise AssertionError("unreachable")
    return _tonelli_shanks(a)


def _tonelli_shanks(a: FieldElem) -> FieldElem:
    field = a.field
    q, s = field.order - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = find_nonsquare(field)
    c = z**q
    x = a ** ((q + 1) // 2)
    t = a**q
    m = s
    one = field.one
    while t != one:
        i, e = 0, t
        while e != one:
            e = e * e
            i += 1
        b = c ** (1 << (m - i - 1))
        x = x * b
        c = b * b
        t = t * c
        m = i
    other = -x
    return x if x.encode() <= other.encode() else other


def primitive_element(field: FiniteField) -> FieldElem:
    """Smallest generator of the multiplicative group in canonical order."""
    n = field.order - 1
    if n == 1:
        return field.one
    primes = list(factorize(n))
    for a in field.nonzero_elements():
        if all(a ** (n // r) != field.one for r in primes):
            return a
    raise AssertionError("unreachable: cyclic group has generators")


class FieldTables:
    """Arithmetic on the integer encodings of F_{p^k}, vectorized over
    numpy int64 arrays.

    Products and inverses go through log/antilog tables of the
    primitive element (the antilog table is doubled so a sum of two
    logs needs no reduction); sums and negatives act digit by digit in
    base p, which is coefficient-wise arithmetic mod p.
    """

    def __init__(self, field: FiniteField):
        self.p, self.k, self.order = field.p, field.k, field.order
        n = field.order - 1
        g = primitive_element(field)
        exp = np.empty(2 * n, dtype=np.int64)
        cur = field.one
        for i in range(n):
            exp[i] = cur.encode()
            cur = cur * g
        exp[n:] = exp[:n]
        self.exp = exp
        self.log = np.zeros(field.order, dtype=np.int64)
        self.log[exp[:n]] = np.arange(n)

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


def minimal_polynomial(a: FieldElem) -> int:
    """Minimal polynomial over F_2 of a nonzero element of F_{2^m},
    returned as a GF(2) polynomial in integer encoding.

    Computed as the product of (x - b) over the Frobenius orbit
    {a, a^2, a^4, ...}; the coefficients land in F_2.
    """
    field = a.field
    if field.p != 2:
        raise ValueError("minimal_polynomial is defined over F_2 fields only")
    if a.is_zero():
        raise ValueError("minimal polynomial of 0 rejected (it is x)")
    orbit = [a]
    b = a * a
    while b != a:
        orbit.append(b)
        b = b * b
    poly = [field.one]
    for root in orbit:
        nxt = [field.zero] * (len(poly) + 1)
        for i, co in enumerate(poly):
            nxt[i + 1] = nxt[i + 1] + co
            nxt[i] = nxt[i] - root * co
        poly = nxt
    out = 0
    for i, co in enumerate(poly):
        if any(c for c in co.coeffs[1:]):
            raise AssertionError("Frobenius-orbit product left the base field")
        if co.coeffs[0]:
            out |= 1 << i
    return out
