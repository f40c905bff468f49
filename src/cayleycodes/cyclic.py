"""Binary cyclic codes as ideals of F_2[x]/(x^n - 1).

A code is identified by its length n and a generator polynomial h that
divides x^n - 1 exactly, with dim = n - deg(h).  Codewords are n-bit
integers under the identification bit i <-> coefficient of x^i.

The module covers: BCH generators over F_{2^m} (least common multiple
of minimal polynomials of consecutive powers of a primitive element),
the odd-to-even length-doubling transform with its interleaving map,
dual generators via reciprocal polynomials, exact minimum distance,
and the combined rate/distance threshold check used by the
headline inner-code instance, with the Ramanujan bound and the
edge-code bounds it is stated against (spectra and tanner import them
from here).  It is integer work on Python ints and lists, and imports
no numpy, so the inner-code commands of the CLI never load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from . import gf2poly
from .errors import CheckFailure, ConstructionError
from .fpoly import factorize, irreducible_polys, smallest_primitive

EXACT_DISTANCE_MAX_DIM = 24


@dataclass(frozen=True)
class CyclicCode:
    """Ideal of F_2[x]/(x^n - 1) generated by h (integer encoding)."""

    n: int
    h: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("length must be positive")
        if self.h == 0:
            raise ConstructionError("zero generator polynomial")
        if gf2poly.degree(self.h) >= self.n:
            raise ConstructionError("deg h must be < n (the zero ideal is excluded)")
        if gf2poly.mod(gf2poly.x_pow_n_minus_1(self.n), self.h) != 0:
            raise ConstructionError(
                f"h (encoding {self.h:#x}) does not divide x^{self.n} - 1"
            )

    @property
    def dim(self) -> int:
        return self.n - gf2poly.degree(self.h)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.dim, self.n)

    def basis(self) -> list[int]:
        """Shift basis {h, xh, ..., x^(k-1) h}; degrees stay below n."""
        return [self.h << i for i in range(self.dim)]

    def contains(self, word: int) -> bool:
        """Membership: a degree < n polynomial is in the ideal iff h divides it."""
        if word < 0 or word >> self.n:
            raise ValueError("word does not fit in n bits")
        return gf2poly.mod(word, self.h) == 0


@dataclass(frozen=True)
class CodeParams:
    """Reported parameters of a code; d_lower is a proven bound."""

    n: int
    k: int
    d_lower: int

    def __post_init__(self):
        if not 0 < self.k <= self.n:
            raise ValueError("need 0 < k <= n")

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.n)

    @property
    def delta_lower(self) -> Fraction:
        return Fraction(self.d_lower, self.n)


# ---------------------------------------------------------------------------
# BCH construction over F_{2^m}
# ---------------------------------------------------------------------------

def log_tables(m: int) -> tuple[list[int], dict[int, int]]:
    """exp[i] = w^i for 0 <= i < 2^m - 1 and log, its inverse, for the
    primitive w of F_{2^m} that FieldTables(2, m) takes as the base of
    its logs: fpoly.smallest_primitive over the smallest modulus.
    Elements are GF(2) polynomial encodings, so sums are XORs."""
    modulus = next(irreducible_polys(2, m))
    f = sum(c << i for i, c in enumerate(modulus))
    w = sum(c << i for i, c in enumerate(smallest_primitive(2, m, modulus)))
    exp = [1]
    for _ in range(2**m - 2):
        exp.append(gf2poly.mod(gf2poly.mul(exp[-1], w), f))
    return exp, {x: i for i, x in enumerate(exp)}


def minimal_polynomial(exp: list[int], log: dict[int, int], e: int) -> int:
    """The minimal polynomial over F_2 of w^e, exp and log from log_tables:
    the product of (X + w^j) over the Frobenius orbit {e 2^t mod n} of e.
    Squaring fixes its coefficients, so they are 0 or 1."""
    n = len(exp)
    poly = [1]  # coefficients in F_{2^m}, lowest degree first
    for j in {e * 2**t % n for t in range(n.bit_length())}:
        poly = [a ^ (exp[(log[b] + j) % n] if b else 0)  # poly * (X + w^j)
                for a, b in zip([0] + poly, poly + [0])]
    if any(c > 1 for c in poly):
        raise AssertionError("Frobenius-orbit product left the base field")
    return sum(c << i for i, c in enumerate(poly))


def bch_generator(m: int, r: int) -> int:
    """Generator of the BCH(m, r) code: lcm of the minimal polynomials
    of w, w^2, ..., w^r (w^n = w^0 = 1).  Conjugate powers share their
    minimal polynomial, so the lcm is the product over the distinct
    Frobenius orbits (each minimal polynomial is irreducible and
    squarefree)."""
    if m < 2:
        raise ValueError("need m >= 2")
    n = (1 << m) - 1
    if not 1 <= r <= n:
        raise ValueError(f"designed root count r must be in 1..{n}, got {r}")
    exp, log = log_tables(m)
    h, seen = 1, set()
    for e in (i % n for i in range(1, r + 1)):
        if e not in seen:
            seen.update(e * 2**t % n for t in range(m))
            h = gf2poly.mul(h, minimal_polynomial(exp, log, e))
    return h


def bch_code(m: int, r: int) -> CyclicCode:
    return CyclicCode((1 << m) - 1, bch_generator(m, r))


def designed_params(code: CyclicCode, r: int) -> CodeParams:
    """Parameters of a BCH code with r designed roots, or of its double:
    n and k read off the code, d >= r + 1 by the Vandermonde bound."""
    return CodeParams(n=code.n, k=code.dim, d_lower=r + 1)


# ---------------------------------------------------------------------------
# Odd-to-even doubling
# ---------------------------------------------------------------------------

def interleave(a: int, b: int, n: int) -> int:
    """The doubling interleaver: length-n words a, b (n odd) map to the
    2n-bit word taking a at even positions below n, b at odd positions
    below n, then roles swapped on the upper half.

    Equivalently a_even(x^2) + x^(n+1) a_odd(x^2) + x b_odd(x^2)
    + x^n b_even(x^2); it is linear and injective, and the image weight
    is weight(a) + weight(b).
    """
    if n % 2 == 0:
        raise ValueError("interleaving is defined for odd n")
    if a >> n or b >> n or a < 0 or b < 0:
        raise ValueError("inputs must be n-bit words")
    out = 0
    for i in range(n):
        src = a if i % 2 == 0 else b
        if (src >> i) & 1:
            out |= 1 << i
        src = b if i % 2 == 0 else a
        if (src >> i) & 1:
            out |= 1 << (n + i)
    return out


def double_length(code: CyclicCode) -> CyclicCode:
    """Cyclic code of length 2n generated by h^2, for odd n.

    Its codeword set is exactly the interleaved image of code x code,
    so the dimension doubles, the rate is preserved, and the minimum
    distance equals that of the input (the normalized distance halves).
    """
    if code.n % 2 == 0:
        raise ValueError("doubling requires odd length (x^n - 1 squarefree)")
    return CyclicCode(2 * code.n, gf2poly.mul(code.h, code.h))


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------

def dual_generator(code: CyclicCode) -> int:
    """Generator of the dual code: the reciprocal of (x^n - 1)/h.

    Its cyclic shifts span the dual; the first n - k shifts are a basis
    (their leading terms form a staircase).  For the full space (h = 1)
    the dual is {0} and 0 is returned.
    """
    g, rem = gf2poly.divmod_(gf2poly.x_pow_n_minus_1(code.n), code.h)
    assert rem == 0
    if gf2poly.degree(g) >= code.n:  # h == 1, dual of the full space
        return 0
    return gf2poly.reciprocal(g)


def dual_basis_rows(code: CyclicCode) -> list[int]:
    """n - k independent shifts of the dual generator (empty for h = 1)."""
    d = dual_generator(code)
    if d == 0:
        return []
    return [d << j for j in range(code.n - code.dim)]


# ---------------------------------------------------------------------------
# Minimum distance measurement
# ---------------------------------------------------------------------------

def gray_codewords(basis: Sequence[int]) -> Iterator[int]:
    """The nonzero words of span(basis), integer-encoded, in Gray-code
    order: step i flips basis[lowest set bit of i].  Each word appears
    once when the basis is independent."""
    word = 0
    for i in range(1, 1 << len(basis)):
        word ^= basis[(i & -i).bit_length() - 1]
        yield word


@dataclass(frozen=True)
class DistanceReport:
    value: Optional[int]       # the exact minimum distance
    witness: Optional[int]     # a codeword achieving `value`


def min_distance(code: CyclicCode) -> DistanceReport:
    """Minimum weight of a nonzero codeword and the first word of that
    weight, by a Gray-code walk over all 2^k - 1 nonzero codewords
    (None, None for the zero code); capped at dim <=
    EXACT_DISTANCE_MAX_DIM to stay under a minute."""
    k = code.dim
    if k > EXACT_DISTANCE_MAX_DIM:
        raise ValueError(
            f"exact enumeration capped at dim {EXACT_DISTANCE_MAX_DIM}, code has {k}"
        )
    best = witness = None
    for word in gray_codewords(code.basis()):
        w = word.bit_count()
        if best is None or w < best:
            best, witness = w, word
    return DistanceReport(best, witness)


# ---------------------------------------------------------------------------
# The even-length inner code with guaranteed rate and distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InnerCodeCheck:
    code: CyclicCode           # the doubled code of length q + 1
    base: CyclicCode           # the BCH code of odd length (q + 1)/2
    r: int                     # designed root count used
    params: CodeParams         # of the doubled code, with designed d_lower
    rate_ok: bool              # rate >= 1/2 + 1/a (exact rational)
    distance_ok: bool          # delta_lower > 2 sqrt(q)/(q+1) (exact rational)

    @property
    def passed(self) -> bool:
        return self.rate_ok and self.distance_ok


def ramanujan_bound(q: int) -> float:
    """2 sqrt(q)/(q+1): the Ramanujan bound on the normalized nontrivial
    eigenvalues of a (q+1)-regular graph, and the distance threshold
    of the inner code."""
    return 2.0 * math.sqrt(q) / (q + 1)


def edge_code_bounds(rate_b: Fraction, delta_b: Fraction, lam: float,
                     lam_tol: float = 1e-6) -> tuple[Fraction, Fraction]:
    """Guaranteed rate and normalized-distance lower bounds of the edge
    code in terms of the inner code and the expansion lambda.

    lambda is only known to +-lam_tol, so the distance bound is
    evaluated at the unfavorable end of the interval (exact rational
    arithmetic on the float endpoints); a reported pass is never a
    rounding accident.  The bound is vacuous (0) unless delta_b exceeds
    the interval's upper end.
    """
    if not -1.0 <= lam < 1.0:
        raise ValueError("lambda must lie in [-1, 1)")
    rate_lb = 2 * rate_b - 1
    lam_hi = Fraction(lam) + Fraction(lam_tol)
    if delta_b <= lam_hi:
        return rate_lb, Fraction(0)
    dist_lb = ((delta_b - lam_hi) / (1 - lam_hi)) ** 2
    return rate_lb, dist_lb


def check_good_inner_code(q: int, m: int, a: int) -> InnerCodeCheck:
    """Build the even-length inner code for parameters tied by
    q + 1 = 2(2^m - 1) and check its guaranteed thresholds.

    The designed root count is r = floor((n/m)(1 - 2/a)) with
    n = 2^m - 1.  The rate threshold is 1/2 + 1/a and the distance
    threshold is 2 sqrt(q)/(q+1), both compared in exact rational
    arithmetic (the distance comparison is squared to avoid the
    irrational right-hand side).
    """
    if a <= 2:
        raise ValueError("need a > 2")
    if m < 10:
        raise ValueError("the guarantee requires m >= 10")
    if len(factorize(q)) != 1:
        raise ConstructionError(f"q = {q} is not a prime power")
    n = (1 << m) - 1
    if q + 1 != 2 * n:
        raise ConstructionError(f"constraint q + 1 = 2(2^{m} - 1) fails for q = {q}")
    r = int(Fraction(n, m) * (1 - Fraction(2, a)))
    base = bch_code(m, r)
    doubled = double_length(base)
    # doubling preserves the minimum distance, so d >= r + 1 carries over
    params = designed_params(doubled, r)
    rate_ok = params.rate >= Fraction(1, 2) + Fraction(1, a)
    delta = params.delta_lower
    distance_ok = delta > 0 and delta * delta * (q + 1) ** 2 > 4 * q
    return InnerCodeCheck(doubled, base, r, params, rate_ok, distance_ok)


def require_inner_thresholds(result: InnerCodeCheck) -> None:
    """Raise CheckFailure when a threshold is not met (CLI exit 1)."""
    if not result.passed:
        raise CheckFailure(
            f"inner-code thresholds not met: rate_ok={result.rate_ok}, "
            f"distance_ok={result.distance_ok} "
            f"(rate={result.params.rate}, delta_lower={result.params.delta_lower})"
        )


# ---------------------------------------------------------------------------
# Text file format: line 1 "n k", line 2 generator polynomial as a hex
# bit string (least significant nibble = lowest-degree coefficients).
# ---------------------------------------------------------------------------

def dumps_code(code: CyclicCode) -> str:
    return f"{code.n} {code.dim}\n{gf2poly.to_hex(code.h)}\n"


def loads_code(text: str) -> CyclicCode:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ValueError("code file must have exactly two lines")
    try:
        n, k = (int(tok) for tok in lines[0].split())
        h = gf2poly.from_hex(lines[1].strip())
    except ValueError as exc:
        raise ValueError(f"malformed code file: {exc}") from exc
    code = CyclicCode(n, h)
    if code.dim != k:
        raise ValueError(f"header says k = {k} but deg(h) gives k = {code.dim}")
    return code


def save_code(code: CyclicCode, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_code(code))


def load_code(path) -> CyclicCode:
    with open(path) as fh:
        return loads_code(fh.read())
