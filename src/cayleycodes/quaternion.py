"""Generator sets from a split quaternion algebra over a residue field.

The construction: fix an odd prime q and a nonsquare d in F_q, and
reduce the quaternion algebra with defining relations

    alpha^2 = d,   z^2 = 1 + y,   z alpha = -alpha z

modulo a prime of F_q[y] avoiding y = 0 and y = -1, landing in the
residue field F_{q^e}.  There the algebra splits: with c = 1 + ybar,

    M_alpha = [[0, d], [1, 0]],   M_z = [[u, -d v], [v, -u]]

for any solution of the norm equation u^2 - d v^2 = c.  The element
gamma = image of 1 + z^-1 = I + c^-1 M_z has determinant ybar/(1+ybar)
up to squares, so the subgroup its torus conjugates generate is
PSL_2(q^e) when ybar/(1+ybar) is a quadratic residue and PGL_2(q^e)
(with a bipartite Cayley graph) when it is not.

The generator set S is the orbit of gamma under the nonsplit torus of
order q + 1, ordered by powers of the torus generator so that torus
conjugation acts on S-indices as the cyclic shift.  This ordering is
what later identifies the coordinates of the cyclic inner code with S.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .errors import ConstructionError
from .fields import (FieldElem, FiniteField, find_nonsquare, is_prime,
                     is_square, irreducible_polys, sqrt)
from .projective import (ProjectiveMatrix, TorusElement, nonsplit_torus,
                         torus_generator)

Variant = Literal["psl", "pgl"]

MIN_RESIDUE_ORDER = 18  # classification guarantee needs q^e > 17


@dataclass(frozen=True)
class ResidueParams:
    """Parameters of one residue-field reduction."""

    q: int                      # odd prime
    e: int                      # residue degree
    base_field: FiniteField     # F_q
    field: FiniteField          # F_{q^e}; equals base_field when e == 1
    residue_poly: tuple         # monic degree-e polynomial cut out by the reduction
    delta: FieldElem            # nonsquare in F_q
    ybar: FieldElem             # image of y in the residue field; not 0 or -1

    def __post_init__(self):
        if self.ybar.is_zero() or self.ybar == -self.field.one:
            raise ConstructionError("ybar must avoid 0 and -1")

    @property
    def c(self) -> FieldElem:
        return self.field.one + self.ybar

    @property
    def residue_class(self) -> FieldElem:
        """ybar / (1 + ybar), whose residuosity decides PSL vs PGL."""
        return self.ybar / self.c

    @property
    def predicted_variant(self) -> Variant:
        return "psl" if is_square(self.residue_class) else "pgl"


def _base_setup(q: int, delta: int | None) -> tuple[FiniteField, FieldElem]:
    if q % 2 == 0 or not is_prime(q):
        raise ConstructionError(
            f"q must be an odd prime, got {q} (prime-power q is not supported)"
        )
    base = FiniteField(q)
    if delta is None:
        d = find_nonsquare(base)
    else:
        d = base(delta)
        if d.is_zero() or is_square(d):
            raise ValueError(f"delta = {delta} is not a nonsquare mod {q}")
    return base, d


def residue_params(q: int, ybar: int, delta: int | None = None) -> ResidueParams:
    """Degree-1 reduction sending y to a given value of F_q."""
    base, d = _base_setup(q, delta)
    yb = base(ybar)
    f = ((-yb.coeffs[0]) % q, 1)  # y - ybar
    return ResidueParams(q, 1, base, base, f, d, yb)


def residue_params_ext(q: int, f: tuple, delta: int | None = None) -> ResidueParams:
    """Degree-e reduction modulo a monic irreducible f with f(0) != 0
    and f(-1) != 0; ybar is the class of y.  delta stays an element of
    F_q; the splitting embeds it where needed."""
    base, d = _base_setup(q, delta)
    e = len(f) - 1
    if e < 2:
        raise ValueError("use residue_params() for degree 1")
    field = FiniteField(q, e, f)
    if f[0] == 0:
        raise ConstructionError("f(0) = 0: the reduction does not invert y")
    if sum(c * (-1) ** i for i, c in enumerate(f)) % q == 0:
        raise ConstructionError("f(-1) = 0: the reduction does not invert 1 + y")
    return ResidueParams(q, e, base, field, tuple(f), d, field((0, 1)))


def choose_ideal(q: int, e: int, want: Variant, delta: int | None = None) -> ResidueParams:
    """Deterministic scan for a residue reduction with the wanted
    residuosity of ybar/(1+ybar).

    Degree 1: ybar runs over 1..q-2 in increasing order (so the
    smallest admissible value is chosen).  Degree >= 2: monic
    irreducibles are scanned in integer-encoding order; ybar is the
    class of y, and f(0) != 0, f(-1) != 0 hold automatically.
    Requires q^e > 17, below which the classification is not
    guaranteed to offer both variants.
    """
    if want not in ("psl", "pgl"):
        raise ValueError(f"variant must be 'psl' or 'pgl', got {want!r}")
    if q**e <= MIN_RESIDUE_ORDER - 1:
        raise ValueError(
            f"q^e = {q**e} <= 17: the classification guarantee needs q^e > 17"
        )
    if e == 1:
        for yb in range(1, q - 1):
            params = residue_params(q, yb, delta)
            if params.predicted_variant == want:
                return params
        raise ConstructionError(f"no admissible ybar found for {want} at q = {q}")
    base, d = _base_setup(q, delta)
    for f in irreducible_polys(q, e):
        if f[0] == 0:
            continue
        if sum(c * (-1) ** i for i, c in enumerate(f)) % q == 0:
            continue
        field = FiniteField(q, e, f)
        params = ResidueParams(q, e, base, field, f, d, field((0, 1)))
        if params.predicted_variant == want:
            return params
    raise ConstructionError(f"no admissible degree-{e} reduction found for {want}")


# ---------------------------------------------------------------------------
# Splitting the algebra into 2x2 matrices
# ---------------------------------------------------------------------------

RawMatrix = tuple[FieldElem, FieldElem, FieldElem, FieldElem]


def _raw_mul(m1: RawMatrix, m2: RawMatrix) -> RawMatrix:
    a, b, c, d = m1
    e, f, g, h = m2
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _raw_scalar(field: FiniteField, s: FieldElem) -> RawMatrix:
    return (s, field.zero, field.zero, s)


@dataclass(frozen=True)
class QuaternionSplit:
    """Explicit images of alpha and z in M_2(F_{q^e}); the defining
    relations are re-verified on construction."""

    field: FiniteField
    m_alpha: RawMatrix
    m_z: RawMatrix
    u: FieldElem
    v: FieldElem
    c: FieldElem


def solve_norm_equation(field: FiniteField, d: FieldElem, c: FieldElem
                        ) -> tuple[FieldElem, FieldElem]:
    """Smallest-v solution of u^2 - d v^2 = c, scanning v in canonical
    order and taking the deterministic square root.  Over a finite
    field a solution always exists (the norm map is onto)."""
    for v in field.elements():
        w = c + d * v * v
        if w.is_zero():
            return field.zero, v
        if is_square(w):
            return sqrt(w), v
    raise AssertionError("norm equation must be solvable over a finite field")


def split_quaternion(params: ResidueParams) -> QuaternionSplit:
    """Split the reduced algebra: produce M_alpha, M_z satisfying
    M_alpha^2 = d I, M_z^2 = (1 + ybar) I and anticommutation, all
    verified exactly before returning."""
    field = params.field
    d = field.embed(params.delta)
    c = params.c
    if c.is_zero():
        raise ConstructionError("1 + ybar = 0; reduction does not invert 1 + y")
    u, v = solve_norm_equation(field, d, c)
    zero, one = field.zero, field.one
    m_alpha: RawMatrix = (zero, d, one, zero)
    m_z: RawMatrix = (u, -(d * v), v, -u)
    if _raw_mul(m_alpha, m_alpha) != _raw_scalar(field, d):
        raise AssertionError("alpha relation failed")
    if _raw_mul(m_z, m_z) != _raw_scalar(field, c):
        raise AssertionError("z relation failed")
    za = _raw_mul(m_z, m_alpha)
    az = _raw_mul(m_alpha, m_z)
    if za != tuple(-x for x in az):
        raise AssertionError("anticommutation failed")
    return QuaternionSplit(field, m_alpha, m_z, u, v, c)


# ---------------------------------------------------------------------------
# The generator set
# ---------------------------------------------------------------------------

@dataclass
class GeneratorSet:
    """Ordered generator set S with s_i = t0^i gamma t0^-i."""

    params: ResidueParams
    split: QuaternionSplit
    gamma: ProjectiveMatrix
    elements: list[ProjectiveMatrix]
    torus: list[TorusElement]            # enumeration order over F_q
    t0: TorusElement                     # generator of the torus, order q + 1
    torus_embedded: list[ProjectiveMatrix]  # aligned with `torus`
    t0_embedded: ProjectiveMatrix

    @property
    def field(self) -> FiniteField:
        return self.params.field

    @property
    def degree(self) -> int:
        return self.params.q + 1

    def __post_init__(self):
        self.lookup = {s: i for i, s in enumerate(self.elements)}

    def validate(self) -> list[str]:
        """Structural failures of S, empty when sound."""
        problems = []
        q = self.params.q
        if len(set(self.elements)) != q + 1:
            problems.append(f"|S| = {len(set(self.elements))} != q + 1 = {q + 1}")
        ident = ProjectiveMatrix.identity(self.field)
        if ident in self.lookup:
            problems.append("identity is in S")
        for s in self.elements:
            if s.inverse() not in self.lookup:
                problems.append("S is not closed under inverse")
                break
        return problems


def build_generators(params: ResidueParams) -> GeneratorSet:
    """gamma = image of 1 + z^-1 and its torus orbit, ordered by powers
    of the torus generator.  Rejects parameter sets whose orbit
    collapses or touches the identity."""
    split = split_quaternion(params)
    field = params.field
    c_inv = split.c.inverse()
    ident_raw = _raw_scalar(field, field.one)
    gamma_raw = tuple(i + c_inv * z for i, z in zip(ident_raw, split.m_z))
    gamma = ProjectiveMatrix.make(field, gamma_raw)

    torus = nonsplit_torus(params.base_field, params.delta)
    _, t0 = torus_generator(torus)
    torus_embedded = [t.matrix.embed(field) for t in torus]
    t0_embedded = t0.matrix.embed(field)

    elements = []
    t_pow = ProjectiveMatrix.identity(field)
    for _ in range(params.q + 1):
        elements.append(gamma.conjugate_by(t_pow))
        t_pow = t_pow * t0_embedded

    gens = GeneratorSet(params, split, gamma, elements, torus, t0,
                        torus_embedded, t0_embedded)
    problems = gens.validate()
    if problems:
        raise ConstructionError(
            f"generator set rejected for q={params.q}, ybar={params.ybar!r}: "
            + "; ".join(problems)
        )
    return gens


def classify(gens: GeneratorSet) -> Variant:
    """PSL/PGL classification from the residuosity of ybar/(1+ybar),
    cross-checked against the determinant class of every generator."""
    predicted = gens.params.predicted_variant
    bits = {s.is_in_psl() for s in gens.elements}
    if len(bits) != 1:
        raise ConstructionError("generators disagree on PSL membership")
    observed = "psl" if bits.pop() else "pgl"
    if observed != predicted:
        raise ConstructionError(
            f"residuosity predicts {predicted} but determinant classes say {observed}"
        )
    return predicted


def expected_group_order(q: int, e: int, variant: Variant) -> int:
    n = q**e
    full = n * (n * n - 1)
    return full if variant == "pgl" else full // 2
