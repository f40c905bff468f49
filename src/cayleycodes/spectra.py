"""Normalized spectra of the Cayley graphs and the expansion certificate,
exactly, from the Gelfand-Graev representation.

Let G = PGL_2(F_Q), Q = q^e, and let the vertex group be G or its index
2 subgroup H = PSL_2(F_Q), with right multiplication by the symmetric
generator set S of size d.  The adjacency operator is A = sum_s R(s) on
the functions of the vertex group, R the right-regular representation.
The regular representation is the sum of the irreducible ones, so the
eigenvalues of A, as a set, are the union over irreducible pi of the
eigenvalues of pi(S) = sum_s pi(s).  The trivial representation gives
d, and for the PGL variant, whose generators all have nonsquare
determinant, sign(det) gives -d: these are the trivial eigenvalues
1 and -1 of A / d.

U = {u_x = [[1, x], [0, 1]]} is isomorphic to (F_Q, +); psi is a
nontrivial character of it.  Ind_U^G psi is realized on the functions f
with f(u_x g) = psi(x) f(g), G acting by right translation.

- Frobenius reciprocity: Hom_G(pi, Ind_U^G psi) = Hom_U(pi, psi).  A
  one-dimensional representation chi(det) restricts trivially to U
  (det u_x = 1), and psi is not trivial, so neither 1 nor sign(det)
  occurs.
- Multiplicity one of Whittaker models: every irreducible
  representation of PGL_2(F_Q) of dimension > 1 is generic and
  dim Hom_U(pi, psi) = 1 (Piatetski-Shapiro, Complex Representations of
  GL(2, K) for Finite Fields K, Contemp. Math. 16, 1983; Bump,
  Automorphic Forms and Representations, 4.1).  The one-dimensional
  representations are chi(det) with chi^2 = 1, that is 1 and sign(det).
  So Ind_U^G psi is the sum of the irreducible representations of
  dimension > 1, each once, and for the PGL variant the eigenvalues of
  sum_s R(s) on it are exactly the nontrivial eigenvalues of A.
- The PSL variant, by Mackey's formula: H is normal of index 2 and
  contains U, so H\\G/U = G/H = {1, diag(eps, 1)} for a nonsquare eps,
  and diag(eps, 1) u_x diag(eps, 1)^-1 = u_{eps x}.  Hence
  Res_H Ind_U^G psi = Ind_U^H psi + Ind_U^H psi_eps with
  psi_eps(x) = psi(eps x).  A nontrivial irreducible sigma of H lies in
  Res_H pi for some irreducible pi of G (Frobenius again, sigma inside
  Res_H Ind_H^G sigma), and pi is not one-dimensional because those
  restrict trivially to H; so sigma occurs in the sum, and the trivial
  representation of H does not (psi and psi_eps are not trivial).  The
  same matrix therefore has, as a set, exactly the nontrivial
  eigenvalues of the PSL graph; only multiplicities differ.
- The choice of psi does not matter: every nontrivial character of
  (F_Q, +) is x -> psi(a x) for some a != 0, and f -> f(diag(a, 1) .)
  is a G-isomorphism between the two induced representations, which
  have the same spectrum under sum_s R(s).  So no field trace is
  needed: psi(x) = exp(2 pi i c0 / p) with c0 = x mod p, the constant
  coefficient of x's encoding, which is F_p-linear and is 1 at x = 1.

A connected graph has the eigenvalue 1 of A / d only from the trivial
representation, and -1 only from sign(det), so every eigenvalue of the
matrix below lies strictly inside (-1, 1) exactly when the Cayley graph
is connected and is bipartite only through the determinant class: the
spectrum also proves that S generates the vertex group, without the
closure.

The matrix.  The Q^2 - 1 right cosets U g are indexed by the bottom row
(c, d) of g scaled so that its first nonzero entry is 1, and by the
determinant D of the scaled matrix, since u_x g = [[a + x c, b + x d],
[c, d]]: index (D - 1) Q + d with representative [[0, -D], [1, d]]
when c = 1, and Q (Q - 1) + D - 1 with representative [[D, 0], [0, 1]]
when (c, d) = (0, 1) (entries by their encodings).  Then g = u_x g_i
with x the scaled top-left entry when c = 1 and the top-right entry
when c = 0.  With f_i the function on U g_i with f_i(u_x g_i) = psi(x),
(R(s) f_i)(g_j) = f_i(g_j s), so M[j, i] = sum of psi(x) over the s
with g_j s = u_x g_i.  The f_i have disjoint supports and equal norms,
so M is the operator in an orthogonal basis, Hermitian for a symmetric
S, and the nontrivial normalized spectrum is that of M / d.

The blocks.  M is never formed: its nonzero entries sit in two of the
four blocks cut out by the determinant class, square or not, of the
cosets.  The class is defined in PGL_2, where scaling by a multiplies
the determinant by the square a^2, and:

- g_j s has the class of g_j times that of s (det is multiplicative);
- u_x g_i has the class of g_i (det u_x = 1), so each coset U g_i has
  one class, that of D;
- so M[j, i] != 0 only if some s has class(g_i) = class(g_j) class(s):
  a generator of square class keeps the coset class, and one of
  nonsquare class swaps it.

Each class holds (Q^2 - 1) / 2 cosets ((Q - 1) / 2 square values of D,
for each of the Q + 1 bottom rows).  When every generator has square
determinant (the PSL variant), M = diag(M_sq, M_ns) in the basis
ordered by class, and its eigenvalues, with M's multiplicities, are
those of M_sq together with those of M_ns.  When every generator has
nonsquare determinant (the PGL variant), M = [[0, B], [B^H, 0]] with
B = M[sq, ns], and with B = U Sigma V^H the vectors (u_k, +-v_k) give
the eigenvalues +-sigma_k(B), again with M's multiplicities.  A set
that mixes the classes has neither form and is refused; the
classification of the quaternion generators already refuses one.  The
symmetric eigensolver and the singular value decomposition are
backward stable; the results are checked to an absolute tolerance of
1e-6.

A (q+1)-regular graph certifies as Ramanujan when every nontrivial
normalized eigenvalue has magnitude at most 2 sqrt(q)/(q+1)
(Lubotzky, Phillips and Sarnak, Ramanujan graphs, Combinatorica 8,
1988).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cyclic import ramanujan_bound
from .errors import CheckFailure
from .projective import PglGroup

SPECTRUM_TOL = 1e-6
# lambda2 and lambda_min are rounded outward to multiples of
# 1 / SPECTRUM_GRID (see SpectrumReport)
SPECTRUM_GRID = 10**10
# the scale limit, in bytes of the complex (Q^2 - 1)-square M that the
# blocks stand for (they take a quarter of it each, and M is never
# allocated): Q = 61 (221 MB) fits, Q = 67 (322 MB) does not.  A packed
# H or star residual is held to the same number of bytes (tanner)
MATRIX_BYTES_LIMIT = 256 * 10**6


@dataclass
class SpectrumReport:
    """The nontrivial spectrum and its extremes.  The extremes are rounded
    outward, once, here: to the nearest point of the 1e-10 grid, then
    one step up for lambda2 and down for lambda_min.  Their last bits
    otherwise depend on the BLAS thread count, and report.json and
    bounds.distance_lower would too; rounding to the nearest point
    first keeps an eigenvalue that is exactly on the grid
    (lambda_min = -0.4 at q = 19) from straddling it.  Moving outward
    by at most 1.5e-10 only tightens is_ramanujan and the distance
    bound, against the 1e-6 tolerance."""
    method: str
    tolerance: float
    lambda2: float                # largest nontrivial eigenvalue
    lambda_min: float             # smallest nontrivial eigenvalue
    eigenvalues: np.ndarray       # the nontrivial ones, ascending; multiplicities are M's
    iterations: Optional[int] = None

    def __post_init__(self):
        self.lambda2 = (round(self.lambda2 * SPECTRUM_GRID) + 1) / SPECTRUM_GRID
        self.lambda_min = (round(self.lambda_min * SPECTRUM_GRID) - 1) / SPECTRUM_GRID


def require_matrix_fits(order: int) -> None:
    """Refuse a field whose Gelfand-Graev matrix would exceed
    MATRIX_BYTES_LIMIT; called before anything is allocated."""
    size = 16 * (order * order - 1) ** 2
    if size > MATRIX_BYTES_LIMIT:
        raise ValueError(
            f"the spectrum over F_{order} needs a {order * order - 1}-square complex "
            f"matrix of {size / 10**6:.0f} MB, above the {MATRIX_BYTES_LIMIT // 10**6} MB limit")


def coset_representatives(group: PglGroup) -> np.ndarray:
    """Keys of the canonical representatives g_i of the right cosets U g,
    in coset index order."""
    t, order = group.tables, group.tables.order
    big_d, d = np.divmod(np.arange(order * (order - 1)), order)
    big_d += 1
    diag = np.arange(1, order)
    zeros = np.zeros_like(diag)
    return np.concatenate([
        group.canonical_key(np.zeros_like(d), t.neg(big_d), np.ones_like(d), d),
        group.canonical_key(diag, zeros, zeros, np.ones_like(diag)),
    ])


def coset_positions(group: PglGroup, keys) -> tuple[np.ndarray, np.ndarray]:
    """(i, x) with key = u_x g_i: the coset index and the encoding of x."""
    t, order = group.tables, group.tables.order
    a, b, c, d = group.entries(keys)
    inv = t.inv(np.where(c != 0, c, d))
    a, b, c, d = (t.mul(e, inv) for e in (a, b, c, d))
    det = t.add(t.mul(a, d), t.neg(t.mul(b, c)))
    split = c == 1
    index = np.where(split, (det - 1) * order + d, order * (order - 1) + det - 1)
    return index, np.where(split, a, b)


def additive_character(p: int) -> np.ndarray:
    """psi on the constant coefficient: exp(2 pi i c / p) for c in F_p."""
    return np.exp(2j * np.pi * np.arange(p) / p)


def gelfand_graev_block(group: PglGroup, gens: np.ndarray, reps: np.ndarray,
                        rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """M[rows, cols] for M = sum over s in gens of R(s) on Ind_U^G psi,
    rows and cols coset indices and reps all the representatives.  A
    product g_j s that lands outside cols has the out-of-range column
    len(cols), so np.add.at raises IndexError rather than misplace it."""
    local = np.full(len(reps), len(cols), dtype=np.int64)
    local[cols] = np.arange(len(cols))
    index, x = coset_positions(group, group.mul(reps[rows, None], gens[None, :]))
    block = np.zeros((len(rows), len(cols)), dtype=complex)
    np.add.at(block, (np.repeat(np.arange(len(rows)), len(gens)), local[index.ravel()]),
              additive_character(group.tables.p)[x.ravel() % group.tables.p])
    return block


def spectrum(group: PglGroup, gens) -> SpectrumReport:
    """The nontrivial normalized spectrum of the Cayley graph of the
    generator keys, from the determinant-class blocks of the
    Gelfand-Graev matrix (no closure needed).  Raises ValueError over
    the memory limit, and CheckFailure when the generators are not
    symmetric, mix the determinant classes, or have an eigenvalue at
    +-1 (the graph is disconnected, or bipartite beyond the
    determinant class)."""
    require_matrix_fits(group.tables.order)
    gens = np.asarray(gens, dtype=np.int64)
    if not np.array_equal(np.sort(group.inverse(gens)), np.sort(gens)):
        raise CheckFailure("generator set is not closed under inverses")
    square_gens = group.in_psl(gens)
    reps = coset_representatives(group)
    in_square = group.in_psl(reps)
    square, nonsquare = np.flatnonzero(in_square), np.flatnonzero(~in_square)
    if square_gens.all():
        # one block at a time: the first is freed before the second is built
        eigs = np.sort(np.concatenate([
            np.linalg.eigvalsh(gelfand_graev_block(group, gens, reps, square, square)),
            np.linalg.eigvalsh(gelfand_graev_block(group, gens, reps, nonsquare, nonsquare)),
        ]))
    elif not square_gens.any():
        sigma = np.linalg.svd(gelfand_graev_block(group, gens, reps, square, nonsquare),
                              compute_uv=False)
        eigs = np.concatenate([-sigma, sigma[::-1]])
    else:
        n_square = int(square_gens.sum())
        raise CheckFailure(f"generator set mixes determinant classes: {n_square} square, "
                           f"{len(gens) - n_square} nonsquare")
    eigs /= len(gens)
    for e in (eigs[-1], eigs[0]):
        if abs(e) >= 1.0 - SPECTRUM_TOL:
            raise CheckFailure(
                f"nontrivial eigenvalue {float(e)!r} within {SPECTRUM_TOL} of +-1: the "
                "generators do not generate the group, or the graph has an "
                "extra bipartition")
    return SpectrumReport(
        method="gelfand-graev", tolerance=SPECTRUM_TOL, lambda2=float(eigs[-1]),
        lambda_min=float(eigs[0]), eigenvalues=eigs)


def is_ramanujan(report: SpectrumReport, q: int) -> bool:
    """Every nontrivial eigenvalue within the optimal-expansion bound;
    the extremes lambda2 and lambda_min bound all the others."""
    bound = ramanujan_bound(q) + SPECTRUM_TOL
    return report.lambda2 <= bound and report.lambda_min >= -bound
