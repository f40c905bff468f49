"""PGL_2 over a finite field on int64 keys.

An element of PGL_2(F_Q) is a nonsingular 2x2 matrix modulo scalars,
held in the canonical form whose first nonzero entry (row-major) is 1
and keyed by its four entry encodings, so equal keys are equal
elements.  The canonical form works uniformly for PGL and PSL:
membership in PSL is the residuosity of the determinant of the
canonical form, well defined because rescaling multiplies the
determinant by a square.  PglGroup multiplies and inverts whole arrays
of keys at a time; the generator set, the group closure, the symmetry
permutations and the spectrum all use it.
"""

from __future__ import annotations

import numpy as np

from .fields import FieldTables

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
    1) is ((a Q + b) Q + c) Q + d with Q the field order and entries by
    their FieldTables encodings.  Products and inverses are
    canonicalized before they are keyed.  mul, inverse and in_psl
    broadcast like numpy arithmetic.
    """

    def __init__(self, tables: FieldTables):
        require_key_fits(tables.order)
        self.tables = tables
        self.identity = int(self.canonical_key(1, 0, 0, 1))

    def entries(self, keys) -> tuple[np.ndarray, ...]:
        q = self.tables.order
        rest, d = np.divmod(np.asarray(keys, dtype=np.int64), q)
        rest, c = np.divmod(rest, q)
        a, b = np.divmod(rest, q)
        return a, b, c, d

    def canonical_key(self, a, b, c, d) -> np.ndarray:
        """Key of the class of the nonsingular [[a, b], [c, d]], entries
        given by their encodings."""
        # a nonsingular matrix has a nonzero entry in its first row
        mul, q = self.tables.mul, self.tables.order
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

    def in_psl(self, x) -> np.ndarray:
        """Whether each element lies in PSL_2: the determinant of its
        canonical form is a square."""
        a, b, c, d = self.entries(x)
        t = self.tables
        return t.is_square(t.add(t.mul(a, d), t.neg(t.mul(b, c))))
