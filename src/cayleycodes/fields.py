"""Finite fields F_p and F_{p^k} on integer encodings.

An element of F_{p^k} = F_p[x]/(f), f monic irreducible of degree k, is
a residue of degree < k with coefficients c_i in 0..p-1 (lowest degree
first), encoded as the integer sum(c_i * p^i).  0 and 1 encode 0 and 1,
and a constant of F_p has the same encoding in every extension over p.
The encoding order is the canonical order: the modulus, the nonsquare,
the square root and the primitive element chosen below are each the
one of smallest encoding.

FieldTables does all arithmetic on encodings, vectorized over numpy
arrays.  The primality tests and the F_p[x] helpers that choose the
modulus and the primitive element live in the numpy-free fpoly and are
imported back here; cyclic builds its BCH codes over F_{2^m} from the
same choices without this module.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConstructionError
from .fpoly import (factorize, irreducible_polys, is_irreducible, is_prime,  # noqa: F401
                    smallest_primitive)


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
        times_g = self._times(smallest_primitive(p, k, modulus)).tolist()
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
