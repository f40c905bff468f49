"""Projective 2x2 matrix groups over finite fields.

A ProjectiveMatrix is a nonsingular 2x2 matrix modulo scalars, held in
the canonical form whose first nonzero entry (row-major) is 1, so
equality and hashing are entry-wise.  The canonical form works
uniformly for PGL and PSL; membership in PSL is decided by quadratic
residuosity of the determinant, which is well defined because
rescaling multiplies the determinant by a square.  The objects build
generator sets; PglGroup does the same arithmetic on int64 keys, a
whole array of elements at a time, for the group closure and the
symmetry permutations.

The nonsplit torus of order q + 1 inside PGL_2(q) is realized as the
matrices [[x, d*y], [y, x]] with d a fixed nonsquare: the left-regular
representation of F_q[alpha] (alpha^2 = d) on the basis {1, alpha},
with projective points (x : y) as representatives.  The semi-direct
product of a vertex group with the torus acts on directed Cayley-graph
edges by (g', s) -> (g * (t g' t^-1), t s t^-1) (see graphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConstructionError
from .fields import FieldElem, FieldTables, FiniteField, find_nonsquare, is_square


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


# ---------------------------------------------------------------------------
# PGL_2 on integer keys
# ---------------------------------------------------------------------------

KEY_ORDER_LIMIT = 55109  # smallest field order Q with Q**4 > 2**63 - 1


def require_key_fits(order: int) -> None:
    """Refuse a field whose PGL_2 keys would overflow int64; called
    before any table or array is allocated."""
    if order >= KEY_ORDER_LIMIT:
        raise ValueError(
            f"field order q^e = {order} is too large for int64 group keys: "
            f"(q^e)^4 must stay below 2^63, so q^e < {KEY_ORDER_LIMIT}"
        )


class PglGroup:
    """PGL_2 over a finite field on int64 keys, vectorized over numpy
    arrays.

    The key of a canonical matrix [[a, b], [c, d]] (first nonzero entry
    1, as in ProjectiveMatrix) is ((a Q + b) Q + c) Q + d with Q the
    field order and entries by their FieldElem.encode() integers, so
    equal keys are equal group elements.  Products and inverses are
    canonicalized before they are keyed.  mul and inverse broadcast
    like numpy arithmetic.
    """

    def __init__(self, field: FiniteField):
        require_key_fits(field.order)
        self.field = field
        self.tables = FieldTables(field)
        self.identity = self.encode(ProjectiveMatrix.identity(field))

    def encode(self, m: ProjectiveMatrix) -> int:
        key = 0
        for x in m.entries():
            key = key * self.field.order + x.encode()
        return key

    def entries(self, keys) -> tuple[np.ndarray, ...]:
        q = self.field.order
        rest, d = np.divmod(np.asarray(keys, dtype=np.int64), q)
        rest, c = np.divmod(rest, q)
        a, b = np.divmod(rest, q)
        return a, b, c, d

    def canonical_key(self, a, b, c, d) -> np.ndarray:
        """Key of the class of the nonsingular [[a, b], [c, d]], entries
        given by their encodings."""
        # a nonsingular matrix has a nonzero entry in its first row
        mul, q = self.tables.mul, self.field.order
        inv = self.tables.inv(np.where(a != 0, a, b))
        return ((mul(a, inv) * q + mul(b, inv)) * q + mul(c, inv)) * q + mul(d, inv)

    def mul(self, x, y) -> np.ndarray:
        a, b, c, d = self.entries(x)
        e, f, g, h = self.entries(y)
        mul, add = self.tables.mul, self.tables.add
        return self.canonical_key(add(mul(a, e), mul(b, g)), add(mul(a, f), mul(b, h)),
                                  add(mul(c, e), mul(d, g)), add(mul(c, f), mul(d, h)))

    def inverse(self, x) -> np.ndarray:
        # the adjugate is a scalar multiple of the inverse
        a, b, c, d = self.entries(x)
        neg = self.tables.neg
        return self.canonical_key(d, neg(b), neg(c), a)
