"""Object-level reference for the integer field and group layer.

cayleycodes computes in F_{p^k} on integer encodings (fields.FieldTables)
and in PGL_2 on int64 keys (projective.PglGroup).  This module keeps
the slow, one-element-at-a-time objects as an independent oracle for
the tests: FieldElem/FiniteField with the exhaustive square root,
nonsquare and primitive-element scans and the Frobenius-orbit minimal
polynomial; ProjectiveMatrix and the norm-form TorusElement; and the
generator set built from them exactly as the paper describes it,
torus over F_q embedded into F_{q^e}.  Bridges to the keyed layer:
reference_field, matrix_key, decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from cayleycodes import gf2poly
from cayleycodes.errors import ConstructionError
from cayleycodes.fields import factorize, irreducible_polys, is_irreducible, is_prime


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
    """The square root of a with the smaller canonical encoding, by
    exhaustive search in encoding order."""
    field = a.field
    if field.p == 2:
        raise ValueError("characteristic-2 square roots are out of scope")
    if a.is_zero():
        raise ValueError("sqrt(0) rejected (is_square(0) is ambiguous)")
    if not is_square(a):
        raise ValueError(f"{a!r} is not a square in {field}")
    for b in field.nonzero_elements():
        if b * b == a:
            return b
    raise AssertionError("unreachable")


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


# ---------------------------------------------------------------------------
# Projective matrices
# ---------------------------------------------------------------------------

class ProjectiveMatrix:
    """2x2 matrix over a finite field, canonicalized modulo scalars."""

    __slots__ = ("field", "a", "b", "c", "d", "_hash")

    def __init__(self, field: FiniteField, a: FieldElem, b: FieldElem,
                 c: FieldElem, d: FieldElem, _canonical: bool = False):
        if not _canonical:
            raise TypeError("use ProjectiveMatrix.make()")
        self.field = field
        self.a, self.b, self.c, self.d = a, b, c, d
        self._hash = hash((field, a, b, c, d))

    @classmethod
    def make(cls, field: FiniteField, entries: Sequence) -> "ProjectiveMatrix":
        a, b, c, d = (field(e) for e in entries)
        det = a * d - b * c
        if det.is_zero():
            raise ConstructionError("singular matrix has no projective class")
        for lead in (a, b, c, d):
            if not lead.is_zero():
                inv = lead.inverse()
                return cls(field, a * inv, b * inv, c * inv, d * inv,
                           _canonical=True)
        raise AssertionError("unreachable")

    @classmethod
    def identity(cls, field: FiniteField) -> "ProjectiveMatrix":
        return cls(field, field.one, field.zero, field.zero, field.one,
                   _canonical=True)

    def __mul__(self, other: "ProjectiveMatrix") -> "ProjectiveMatrix":
        if other.field != self.field:
            raise ValueError("matrices live over different fields")
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return ProjectiveMatrix.make(
            self.field,
            (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h),
        )

    def inverse(self) -> "ProjectiveMatrix":
        # the adjugate is a scalar multiple of the inverse
        return ProjectiveMatrix.make(self.field, (self.d, -self.b, -self.c, self.a))

    def det(self) -> FieldElem:
        return self.a * self.d - self.b * self.c

    def is_in_psl(self) -> bool:
        """Whether this class lies in PSL_2: det of the canonical form
        is a square (invariant under rescaling by c, which scales the
        determinant by c^2)."""
        return is_square(self.det())

    def conjugate_by(self, t: "ProjectiveMatrix") -> "ProjectiveMatrix":
        return t * self * t.inverse()

    def entries(self) -> tuple[FieldElem, FieldElem, FieldElem, FieldElem]:
        return (self.a, self.b, self.c, self.d)

    def to_ints(self) -> list[list[int]]:
        """Serialization: each entry as its coefficient list."""
        return [e.to_coeff_list() for e in self.entries()]

    def embed(self, target: FiniteField) -> "ProjectiveMatrix":
        """Entry-wise embedding into an extension over the same p."""
        return ProjectiveMatrix.make(target, tuple(target.embed(e) for e in self.entries()))

    def __eq__(self, other):
        return (
            isinstance(other, ProjectiveMatrix)
            and other.field == self.field
            and other.a == self.a and other.b == self.b
            and other.c == self.c and other.d == self.d
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"[[{self.a!r}, {self.b!r}], [{self.c!r}, {self.d!r}]]"


# ---------------------------------------------------------------------------
# The nonsplit torus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusElement:
    """Point (x : y) of the projective line over F_q together with its
    matrix [[x, d*y], [y, x]].  Multiplication follows the norm form of
    F_q[alpha]: (x1 + y1 a)(x2 + y2 a) = (x1 x2 + d y1 y2) + (x1 y2 + y1 x2) a.
    """

    x: FieldElem
    y: FieldElem
    delta: FieldElem
    matrix: ProjectiveMatrix

    @classmethod
    def make(cls, x: FieldElem, y: FieldElem, delta: FieldElem) -> "TorusElement":
        if x.is_zero() and y.is_zero():
            raise ValueError("(0 : 0) is not a projective point")
        # normalize the representative: (1 : y/x) or (0 : 1)
        if not x.is_zero():
            y = y / x
            x = x.field.one
        else:
            y = y.field.one
        field = x.field
        mat = ProjectiveMatrix.make(field, (x, delta * y, y, x))
        return cls(x, y, delta, mat)

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        x = self.x * other.x + self.delta * self.y * other.y
        y = self.x * other.y + self.y * other.x
        return TorusElement.make(x, y, self.delta)

    def inverse(self) -> "TorusElement":
        # (x + y a)^-1 is proportional to the conjugate x - y a
        return TorusElement.make(self.x, -self.y, self.delta)

    def is_identity(self) -> bool:
        return self.y.is_zero()


def nonsplit_torus(field: FiniteField, delta: FieldElem | None = None) -> list[TorusElement]:
    """The q + 1 elements of the nonsplit torus in PGL_2(q), enumerated
    as (1 : t) for t in F_q followed by (0 : 1)."""
    if field.p == 2:
        raise ValueError("odd characteristic required")
    if delta is None:
        delta = find_nonsquare(field)
    else:
        delta = field(delta)
        if is_square(delta):
            raise ValueError("delta must be a nonsquare")
    out = [TorusElement.make(field.one, y, delta) for y in field.elements()]
    out.append(TorusElement.make(field.zero, field.one, delta))
    if len({t.matrix for t in out}) != field.order + 1:
        raise AssertionError("torus enumeration produced duplicates")
    return out


def torus_element_order(t: TorusElement, cap: int) -> int:
    order = 1
    cur = t
    while not cur.is_identity():
        cur = cur * t
        order += 1
        if order > cap:
            raise AssertionError("torus element order exceeded group order")
    return order


def torus_generator(torus: list[TorusElement]) -> tuple[int, TorusElement]:
    """First element (in enumeration order) of order exactly q + 1,
    together with its index in the torus list."""
    size = len(torus)
    for idx, t in enumerate(torus):
        if torus_element_order(t, size) == size:
            return idx, t
    raise AssertionError("nonsplit torus is cyclic; a generator must exist")


def reference_bch_generator(m: int, r: int) -> int:
    """lcm of the minimal polynomials of w, ..., w^r, w the smallest
    primitive element of F_{2^m}: the product of the distinct ones."""
    field = ext_field(2, m)
    w = primitive_element(field)
    h, seen = 1, set()
    for i in range(1, r + 1):
        mp = minimal_polynomial(w**i)
        if mp not in seen:
            seen.add(mp)
            h = gf2poly.mul(h, mp)
    return h


# ---------------------------------------------------------------------------
# The generator set on objects
# ---------------------------------------------------------------------------

RawMatrix = tuple[FieldElem, FieldElem, FieldElem, FieldElem]


def raw_mul(m1: RawMatrix, m2: RawMatrix) -> RawMatrix:
    """Product of 2x2 matrices as row-major entry tuples, no scaling."""
    a, b, c, d = m1
    e, f, g, h = m2
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def split_matrices(field: FiniteField, d: int, u: int, v: int) -> tuple[RawMatrix, RawMatrix]:
    """M_alpha = [[0, d], [1, 0]] and M_z = [[u, -d v], [v, -u]] over the
    field, from encodings."""
    d, u, v = field.from_int(d), field.from_int(u), field.from_int(v)
    return (field.zero, d, field.one, field.zero), (u, -(d * v), v, -u)

def _variant(field: FiniteField, ybar: FieldElem) -> str:
    return "psl" if is_square(ybar / (field.one + ybar)) else "pgl"


def reference_choose_ideal(q: int, e: int, want: str) -> tuple[tuple, int, list[int]]:
    """(residue polynomial, delta, ybar coefficients) of the first
    admissible reduction of the wanted variant: ybar = 1..q-2 for e = 1,
    monic irreducibles in encoding order for e >= 2."""
    base = prime_field(q)
    delta = find_nonsquare(base).encode()
    if e == 1:
        for yb in range(1, q - 1):
            if _variant(base, base(yb)) == want:
                return ((-yb) % q, 1), delta, [yb]
        raise ConstructionError("no admissible ybar")
    for f in irreducible_polys(q, e):
        if f[0] == 0 or sum(c * (-1) ** i for i, c in enumerate(f)) % q == 0:
            continue
        field = FiniteField(q, e, f)
        if _variant(field, field((0, 1))) == want:
            return f, delta, field((0, 1)).to_coeff_list()
    raise ConstructionError("no admissible reduction")


@dataclass
class ReferenceGenerators:
    field: FiniteField
    u: FieldElem
    v: FieldElem
    gamma: ProjectiveMatrix
    elements: list[ProjectiveMatrix]     # s_i = t0^i gamma t0^-i
    torus: list[TorusElement]            # over F_q, enumeration order
    t0: TorusElement
    t0_embedded: ProjectiveMatrix


def solve_norm_equation(field: FiniteField, d: FieldElem, c: FieldElem
                        ) -> tuple[FieldElem, FieldElem]:
    """Smallest-v solution of u^2 - d v^2 = c, v in canonical order,
    u the smaller square root."""
    for v in field.elements():
        w = c + d * v * v
        if w.is_zero():
            return field.zero, v
        if is_square(w):
            return sqrt(w), v
    raise AssertionError("norm equation must be solvable over a finite field")


def reference_generators(q: int, e: int, residue_poly: Sequence[int], delta: int,
                         ybar: Sequence[int]) -> ReferenceGenerators:
    """The generator set on objects, from the parameters as report.json
    records them: split the algebra with the norm equation, gamma =
    I + c^-1 M_z, the torus over F_q with its first generator, embedded
    into F_{q^e} to conjugate gamma."""
    base = prime_field(q)
    field = base if e == 1 else FiniteField(q, e, residue_poly)
    d = field.embed(base(delta))
    c = field.one + field(ybar)
    u, v = solve_norm_equation(field, d, c)
    c_inv = c.inverse()
    gamma = ProjectiveMatrix.make(
        field, (field.one + c_inv * u, -(c_inv * d * v), c_inv * v, field.one - c_inv * u))
    torus = nonsplit_torus(base, base(delta))
    _, t0 = torus_generator(torus)
    t0_embedded = t0.matrix.embed(field)
    elements, t_pow = [], ProjectiveMatrix.identity(field)
    for _ in range(q + 1):
        elements.append(gamma.conjugate_by(t_pow))
        t_pow = t_pow * t0_embedded
    return ReferenceGenerators(field, u, v, gamma, elements, torus, t0, t0_embedded)


# ---------------------------------------------------------------------------
# Bridges between keys and objects
# ---------------------------------------------------------------------------

_FIELDS: dict[tuple, FiniteField] = {}


def reference_field(tables) -> FiniteField:
    """The object field with the modulus of a FieldTables."""
    key = (tables.p, tables.k, tables.modulus)
    if key not in _FIELDS:
        _FIELDS[key] = FiniteField(*key)
    return _FIELDS[key]


def matrix_key(m: ProjectiveMatrix) -> int:
    """The PglGroup key of a canonical matrix."""
    key = 0
    for x in m.entries():
        key = key * m.field.order + x.encode()
    return key


def decode(group, key: int) -> ProjectiveMatrix:
    """The matrix behind a PglGroup key."""
    field = reference_field(group.tables)
    entries = (int(x) for x in group.entries(key))
    return ProjectiveMatrix.make(field, [field.from_int(x) for x in entries])
