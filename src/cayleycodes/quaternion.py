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

Everything here is integer encodings of FieldTables and PglGroup keys.
A constant of F_q has the same encoding in F_{q^e}, so d, the torus
and the splitting live in F_{q^e} directly, with no embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConstructionError
from .fields import FieldTables, irreducible_polys, is_prime
from .projective import PglGroup, require_key_fits

Variant = Literal["psl", "pgl"]

MIN_RESIDUE_ORDER = 18  # classification guarantee needs q^e > 17


@dataclass(frozen=True)
class ResidueParams:
    """Parameters of one residue-field reduction; field elements are
    encodings in `tables`."""

    q: int                      # odd prime
    e: int                      # residue degree
    tables: FieldTables         # F_{q^e}: modulus x for e = 1, else residue_poly
    residue_poly: tuple         # monic degree-e polynomial cut out by the reduction
    delta: int                  # nonsquare in F_q
    ybar: int                   # image of y in the residue field; not 0 or -1

    def __post_init__(self):
        if self.ybar == 0 or self.ybar == self.tables.neg(1):
            raise ConstructionError("ybar must avoid 0 and -1")

    @property
    def c(self) -> int:
        return int(self.tables.add(1, self.ybar))

    @property
    def residue_class(self) -> int:
        """ybar / (1 + ybar), whose residuosity decides PSL vs PGL."""
        t = self.tables
        return int(t.mul(self.ybar, t.inv(self.c)))

    @property
    def predicted_variant(self) -> Variant:
        return "psl" if self.tables.is_square(self.residue_class) else "pgl"


def _base_setup(q: int, e: int, delta: int | None) -> tuple[FieldTables, int]:
    """F_q and the nonsquare d: the given one, or the smallest."""
    if q % 2 == 0 or not is_prime(q):
        raise ConstructionError(
            f"q must be an odd prime, got {q} (prime-power q is not supported)"
        )
    require_key_fits(q**e)
    base = FieldTables(q)
    if delta is None:
        return base, base.nonsquare
    d = delta % q
    if d == 0 or base.is_square(d):
        raise ValueError(f"delta = {delta} is not a nonsquare mod {q}")
    return base, d


def residue_params(q: int, ybar: int, delta: int | None = None) -> ResidueParams:
    """Degree-1 reduction sending y to a given value of F_q."""
    base, d = _base_setup(q, 1, delta)
    yb = ybar % q
    return ResidueParams(q, 1, base, ((-yb) % q, 1), d, yb)  # f = y - ybar


def residue_params_ext(q: int, f: tuple, delta: int | None = None) -> ResidueParams:
    """Degree-e reduction modulo a monic irreducible f; ybar is the
    class of y, encoded as q.  An irreducible f of degree >= 2 has no
    root, so f(0) != 0 and f(-1) != 0: the reduction inverts y and
    1 + y."""
    e = len(f) - 1
    _, d = _base_setup(q, e, delta)
    if e < 2:
        raise ValueError("use residue_params() for degree 1")
    return ResidueParams(q, e, FieldTables(q, e, f), tuple(f), d, q)


def choose_ideal(q: int, e: int, want: Variant, delta: int | None = None) -> ResidueParams:
    """Deterministic scan for a residue reduction with the wanted
    residuosity of ybar/(1+ybar).

    Degree 1: ybar runs over 1..q-2 in increasing order (so the
    smallest admissible value is chosen).  Degree >= 2: monic
    irreducibles are scanned in integer-encoding order (none has a root,
    so none vanishes at 0 or -1); ybar is the class of y.  Requires
    q^e > 17, below which the classification is not guaranteed to
    offer both variants.
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
    _, d = _base_setup(q, e, delta)
    for f in irreducible_polys(q, e):
        params = ResidueParams(q, e, FieldTables(q, e, f), f, d, q)
        if params.predicted_variant == want:
            return params
    raise ConstructionError(f"no admissible degree-{e} reduction found for {want}")


# ---------------------------------------------------------------------------
# Splitting the algebra and the generator set
# ---------------------------------------------------------------------------

def split_quaternion(params: ResidueParams) -> tuple[int, int]:
    """The solution (u, v) of the norm equation u^2 - d v^2 = c that
    splits the reduced algebra: the first v in encoding order for which
    c + d v^2 is 0 or a square, and u its smaller square root.  Over a
    finite field one always exists (the norm map is onto).

    The relations then hold identically: M_alpha^2 = d I, M_z^2 =
    (u^2 - d v^2) I = c I, and M_z M_alpha = [[-d v, d u], [-u, d v]]
    = -M_alpha M_z.  So the norm equation is the one thing to check.
    """
    t, d, c = params.tables, params.delta, params.c
    vs = np.arange(t.order)
    w = t.add(c, t.mul(d, t.mul(vs, vs)))
    v = int(np.argmax((w == 0) | (t.log[w] % 2 == 0)))
    u = 0 if w[v] == 0 else t.sqrt(w[v])
    if t.add(t.mul(u, u), t.neg(t.mul(d, t.mul(v, v)))) != c:
        raise AssertionError("norm equation failed")
    return u, v


def nonsplit_torus(group: PglGroup, q: int, delta: int) -> np.ndarray:
    """Keys of the q + 1 elements of the nonsplit torus of PGL_2(q),
    the matrices [[x, d y], [y, x]] at the points (x : y) = (1 : t) for
    t = 0..q-1, then (0 : 1)."""
    y = np.arange(q + 1)
    x = (y < q).astype(np.int64)
    y[q] = 1
    keys = group.canonical_key(x, group.tables.mul(delta, y), y, x)
    if len(set(keys.tolist())) != q + 1:
        raise AssertionError("torus enumeration produced duplicates")
    return keys


def torus_generator(group: PglGroup, torus: np.ndarray) -> int:
    """The first torus element, in enumeration order, whose order is
    exactly q + 1 = len(torus)."""
    order = np.zeros(len(torus), dtype=np.int64)
    power = torus
    for k in range(1, len(torus) + 1):
        order[(order == 0) & (power == group.identity)] = k
        power = group.mul(power, torus)
    if not (order == len(torus)).any():
        raise AssertionError("nonsplit torus is cyclic; a generator must exist")
    return int(torus[np.argmax(order == len(torus))])


@dataclass
class GeneratorSet:
    """Ordered generator set S with s_i = t0^i gamma t0^-i, as keys."""

    params: ResidueParams
    group: PglGroup
    gamma: int
    elements: np.ndarray                 # keys of S, in torus-power order
    torus: np.ndarray                    # keys of the torus, enumeration order
    t0: int                              # key of the torus generator, order q + 1

    @property
    def degree(self) -> int:
        return self.params.q + 1

    def validate(self) -> list[str]:
        """Structural failures of S, empty when sound."""
        problems = []
        q, s = self.params.q, self.elements
        if len(set(s.tolist())) != q + 1:
            problems.append(f"|S| = {len(set(s.tolist()))} != q + 1 = {q + 1}")
        if (s == self.group.identity).any():
            problems.append("identity is in S")
        if not set(self.group.inverse(s).tolist()) <= set(s.tolist()):
            problems.append("S is not closed under inverse")
        return problems


def build_generators(params: ResidueParams) -> GeneratorSet:
    """gamma = image of 1 + z^-1 and its torus orbit, ordered by powers
    of the torus generator.  Rejects parameter sets whose orbit
    collapses or touches the identity.

    gamma = I + c^-1 M_z is nonsingular: its determinant is
    (c^2 - u^2 + d v^2) / c^2 = (c - 1) / c = ybar/(1 + ybar) != 0.
    """
    group = PglGroup(params.tables)
    t, q = params.tables, params.q
    u, v = split_quaternion(params)
    c_inv = t.inv(params.c)
    gamma = int(group.canonical_key(
        t.add(1, t.mul(c_inv, u)), t.neg(t.mul(c_inv, t.mul(params.delta, v))),
        t.mul(c_inv, v), t.add(1, t.neg(t.mul(c_inv, u)))))

    torus = nonsplit_torus(group, q, params.delta)
    t0 = torus_generator(group, torus)
    powers = [group.identity]
    for _ in range(q):
        powers.append(int(group.mul(powers[-1], t0)))
    powers = np.array(powers, dtype=np.int64)
    elements = group.mul(group.mul(powers, gamma), group.inverse(powers))

    gens = GeneratorSet(params, group, gamma, elements, torus, t0)
    problems = gens.validate()
    if problems:
        raise ConstructionError(
            f"generator set rejected for q={params.q}, ybar={params.ybar}: "
            + "; ".join(problems)
        )
    return gens


def classify(gens: GeneratorSet) -> Variant:
    """PSL/PGL classification from the residuosity of ybar/(1+ybar),
    cross-checked against the determinant class of every generator."""
    predicted = gens.params.predicted_variant
    bits = set(gens.group.in_psl(gens.elements).tolist())
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
