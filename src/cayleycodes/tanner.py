"""The code on the edges of a Cayley graph, and its verification.

A word indexed by the undirected edges is a codeword when, at every
vertex g, the local view (the q+1 incident edge bits read in generator
order, position i at the edge toward g*s_i) lies in the inner cyclic
code B.  The parity-check matrix H therefore has one row per vertex per
dual-basis word of B: the row places the dual word's bits on the star
of the vertex.  Rows are a spanning set of the dual, possibly
redundant; the rank of H, not its row count, defines the code.  H is
one CSR pair (int64 indptr, int32 indices) that every reader takes as is.

Reading the view in generator order, with S ordered by torus powers, is
the one convention that turns the torus action on views into the
cyclic coordinate shift of B; every check below breaks if the ordering
drifts, which is exactly what makes them worth running.

Rank by star elimination.  The code is a Tanner code (Tanner, IEEE
T-IT 1981): H is the union of the local checks L_v(B-dual), L_v placing
a local word on the star of v, so most of its rank is local.  This is
the structured Gaussian elimination of LaMacchia and Odlyzko (CRYPTO
1990) applied to stars; the rank never packs H.
Write r = n - k = len(dual_rows).

  1. Pivots (star_pivots, with the instance).  In id order, an open
     vertex v joins I when r of its star positions whose neighbours are
     not in I carry independent columns of B-dual (an information set
     P_v); candidates are taken greedily, neighbours already outside I
     (receivers) first, then open ones, each in position order.  The
     neighbours across P_v become receivers and never join I; a vertex
     without an information set stays outside I.
  2. Each v in I brings B-dual to systematic form on P_v: the word s_p
     has bit p and no other bit of P_v.
  3. For u outside I and each dual word w, the residual row is
     L_u(w) + sum L_v(s_p) over the pivot edges p = {u, v} of L_u(w);
     the pivot columns are dropped.
  4. rank(H) = r |I| + rank(residual).  The residual's columns of
     weight 1 or 2 are contracted into a count of components, round by
     round, until none is left or a round keeps more than half of its
     rows (residual_rank); only what remains is packed and eliminated
     by Gf2Matrix.echelon.  For the x^4 + 1
     codes (B-dual spanned by words of disjoint support) every column
     has weight 0 or 2 and one round leaves nothing to pack.

Proof.  An edge lies on exactly two stars, those of its endpoints, and
a pivot edge of v leads to a receiver, so it is a pivot of v alone, and
the star of v meets no pivot column but its own P_v (an edge {v, v'}
that is a pivot of v' would lead from v' into I).  So on the pivot
columns the rows L_v(s_p) form a permutation matrix: they have rank
r |I|, and each term of step 3 clears its pivot edge and touches no
other pivot column, leaving the residual zero on every pivot column.
The s_p span B-dual, so the L_v(s_p) with the rows L_u(w) span
rowspace(H), and the residual rows differ from the L_u(w) by rows
L_v(s_p): the two families span rowspace(H) too.  A combination that
vanishes must use no L_v(s_p) (look at the pivot columns), so the ranks
add.  star_rank checks the three facts this rests on: every P_v is an
information set with s_p in B-dual, no pivot edge leads into I (and no
vertex is in I twice), and the residual is zero on the pivot columns;
a failure names the vertex.

Rank by contracting light columns.  Call a column of weight 1 or 2
light, and write R = [A | B] with A the light columns; pivoting on
light columns is the filtering of Cavallar (ANTS 2000).  Then
rank R = rank A + rank(N B), where the rows of N are a basis of the
left kernel of A: y R = 0 iff y A = 0 and y B = 0, that is iff y = z N
with z N B = 0, and z -> z N is injective, so the left kernels of R
and of N B have equal dimension: rows(R) - rank R = rows(N) -
rank(N B), and rows(N) = rows(R) - rank A.  A is the incidence matrix
of a multigraph on the rows plus a ground vertex, with the ground row
deleted: a weight-2 column is an edge between its two rows (distinct,
as the entries are), a weight-1 column an edge from its row to ground.
y A = 0 says that y is equal at the two ends of every edge, with y = 0
at ground: y is constant on every component and 0 on the one of
ground.  So the indicator vectors of the c0 components without ground
(an isolated row is one) are a basis of the left kernel, rank A =
rows - c0, and N B is the c0 x |B| matrix whose rows are the sums of
each such component's rows on the heavy columns.  Each round of
residual_rank adds rows - c0 and replaces R by N B with its empty
columns dropped; a light column either joins two components or joins a
row to ground, so c0 < rows and the rounds end.  A round costs
O(entries), so the contraction also stops after a round that keeps more
than half of its rows, and the packed kernel takes the rest: the rows
halve in every round before that one, so there are at most
log2(rows) + 1 rounds, where a cascade (an all-ones triangle loses two
rows a round) would take rows / 2 of them.  When every column has
weight 0 or 2, as for x^4 + 1, N B is empty after the first round and
rank R = rows - components.

The components are found by min-label propagation with pointer
jumping: each vertex points at a vertex of its component with no
larger index; every round hooks the larger of the two roots of every
light column under the smaller one, then jumps pointers until each
vertex points at a root, and stops when both ends of every column share
a root.  A round that does not stop hooks at least one root, so the
rounds end, and the roots left are one per component, its smallest
vertex.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import gf2poly
from .cyclic import CyclicCode, dual_basis_rows, edge_code_bounds
from .errors import CheckFailure, ConstructionError
from .gf2 import Gf2Matrix, int_rank
from .graphs import CayleyGraph


class StarPivots(NamedTuple):
    """The pivots of star elimination (module docstring), one entry per
    vertex of I in id order."""
    vertices: np.ndarray                 # (|I|,) the vertices of I
    positions: np.ndarray                # (|I|, r) star positions P_v
    words: np.ndarray                    # (|I|, r) dual words, systematic on P_v


@dataclass(eq=False)                     # compared by identity: H is arrays
class CayleyCodeInstance:
    graph: CayleyGraph
    inner: CyclicCode
    dual_rows: list[int]                 # basis of B-dual, integer words
    indptr: np.ndarray                   # H as CSR: row i holds the sorted
    indices: np.ndarray                  # edge ids indices[indptr[i]:indptr[i + 1]]

    @cached_property
    def pivots(self) -> StarPivots:
        """Picked from graph and dual_rows on the first rank, checked there."""
        return star_pivots(self.graph, self.dual_rows)

    @property
    def n(self) -> int:
        return self.graph.n_edges

    @cached_property
    def matrix(self) -> Gf2Matrix:
        """H, one row per (vertex, dual word), packed on first use.
        Nothing in the package reads it: the tests pack H as the input
        of their oracles, and the benchmark tracer's tanner.assemble
        span records its row count, so it stays while they do."""
        require_packed_fits("H", self.indptr.size - 1, self.n)
        return Gf2Matrix.from_supports(self.n, self.indptr, self.indices)

    @cached_property
    def rank(self) -> int:
        """rank(H) by star elimination, without packing H."""
        return star_rank(self)

    @property
    def dim(self) -> int:
        return self.n - self.rank


def build_parity_check(graph: CayleyGraph, inner: CyclicCode) -> CayleyCodeInstance:
    """H as CSR: row (v, w) is eid[v] at the bits of dual word w, sorted, in (vertex,
    word) order, the words' tables side by side read row-major (an empty one for r = 0)."""
    if inner.n != graph.degree:
        raise ConstructionError(
            f"inner code length {inner.n} != graph degree {graph.degree}"
        )
    rows = dual_basis_rows(inner)
    bits = [[i for i in range(inner.n) if word >> i & 1] for word in rows]
    table = np.concatenate([graph.eid[:, :0]] + [np.sort(graph.eid[:, b], axis=1)
                                                 for b in bits], axis=1)
    indptr = np.append(0, np.cumsum(np.tile([len(b) for b in bits], graph.n_vertices),
                                    dtype=np.int64))
    return CayleyCodeInstance(graph, inner, rows, indptr, table.reshape(-1))


# ---------------------------------------------------------------------------
# Rank of H by star elimination
# ---------------------------------------------------------------------------

def _systematic(dual_rows: Sequence[int], positions: Sequence[int]) -> list[int]:
    """Gauss-Jordan on the dual words with pivots at `positions`, which
    must be an information set: per position p, the word of the span
    with bit p and no other bit in `positions`."""
    rows = list(dual_rows)
    for t, p in enumerate(positions):
        k = next(k for k in range(t, len(rows)) if rows[k] >> p & 1)
        rows[t], rows[k] = rows[k], rows[t]
        rows = [row ^ rows[t] if j != t and row >> p & 1 else row
                for j, row in enumerate(rows)]
    return rows


def _columns(dual_rows: Sequence[int], degree: int) -> list[int]:
    """Column i of the dual words as an r-bit integer, bit j from word j."""
    return [sum((w >> i & 1) << j for j, w in enumerate(dual_rows))
            for i in range(degree)]


def _independent(cols: list[int], order: Sequence[int], r: int) -> list[int]:
    """The positions in `order` whose column is independent of the
    columns taken before, at most r of them."""
    basis: dict[int, int] = {}                # leading bit -> reduced column
    taken: list[int] = []
    for i in order:
        c = cols[i]
        while c and c.bit_length() in basis:
            c ^= basis[c.bit_length()]
        if c:
            basis[c.bit_length()] = c
            taken.append(i)
            if len(taken) == r:
                break
    return taken


def star_pivots(graph: CayleyGraph, dual_rows: Sequence[int]) -> StarPivots:
    """The greedy of the module docstring (I is empty when B-dual is)."""
    r, cols = len(dual_rows), _columns(dual_rows, graph.degree)
    if r == 0:
        none = np.zeros((0, 0), dtype=np.int64)
        return StarPivots(none.reshape(0), none, none)
    OUT, OPEN, IN = 0, 1, 2
    state = [OPEN] * graph.n_vertices
    systematic: dict[tuple, list[int]] = {}
    chosen, positions, words = [], [], []
    for v in range(graph.n_vertices):
        if state[v] != OPEN:
            continue
        nbrs = graph.adj[v].tolist()          # per open vertex: no list of all of adj
        near = [state[u] for u in nbrs]
        # receivers first, then open neighbours, each in position order
        order = sorted(range(graph.degree), key=near.__getitem__)
        taken = _independent(cols, order[:len(order) - near.count(IN)], r)
        if len(taken) < r:
            state[v] = OUT
            continue
        state[v] = IN
        for p in taken:
            state[nbrs[p]] = OUT
        key = tuple(taken)
        if key not in systematic:
            systematic[key] = _systematic(dual_rows, key)
        chosen.append(v)
        positions.append(taken)
        words.append(systematic[key])
    shape = (len(chosen), r)
    return StarPivots(np.array(chosen, dtype=np.int64),
                      np.array(positions, dtype=np.int64).reshape(shape),
                      np.array(words, dtype=np.int64).reshape(shape))


def star_rank(inst: CayleyCodeInstance) -> int:
    """rank(H) = r |I| + rank(residual), by the proof in the module
    docstring.  Its preconditions are checked here, vectorized, and a
    failure names the vertex of I it concerns."""
    graph, dual, n = inst.graph, inst.dual_rows, inst.n
    r, degree = len(dual), graph.degree
    if r == 0:
        return 0
    chosen, pos, words = inst.pivots

    def fail(a: int, what: str):
        raise CheckFailure(f"star elimination: vertex {chosen[a]} {what}")

    # 1. words[a] is span(dual) in systematic form on pos[a], which makes
    # pos[a] an information set: word b has bit pos[a, b] and no other
    # pivot bit, and is orthogonal to the complement of span(dual), whose
    # basis is read off the systematic form on the first information set
    first = _independent(_columns(dual, degree), range(degree), r)
    ref = _systematic(dual, first)[:len(first)]
    complement = np.array([1 << f | sum(1 << p for p, w in zip(first, ref) if w >> f & 1)
                           for f in range(degree) if f not in first], dtype=np.int64)
    unit = (words[:, :, None] >> pos[:, None, :] & 1) == np.eye(r, dtype=np.int64)
    orth = np.bitwise_count(words[:, :, None] & complement) & 1 == 0
    bad = ~(unit.all(axis=(1, 2)) & orth.all(axis=(1, 2)))
    if bad.any():
        a = int(np.argmax(bad))
        fail(a, f"has pivot positions {pos[a].tolist()}, not an information set")
    # 2. the vertices of I are distinct, and every pivot edge leads out of I
    twice = np.bincount(chosen, minlength=graph.n_vertices) > 1
    if twice.any():
        raise CheckFailure(f"star elimination: vertex {np.argmax(twice)} is "
                           "listed twice in I")
    in_i = np.zeros(graph.n_vertices, dtype=bool)
    in_i[chosen] = True
    into_i = in_i[graph.adj[chosen[:, None], pos]].any(axis=1)
    if into_i.any():
        fail(int(np.argmax(into_i)), "has a pivot edge into I")

    # pivot k = r a + b is the edge at position pos[a, b] of vertex chosen[a]
    pivot_of = np.full(n, -1, dtype=np.int32)
    pivot_of[graph.eid[chosen[:, None], pos].ravel()] = np.arange(chosen.size * r)
    # residual row r x + j is L_u(dual[j]) for u = outside[x] ...
    outside = np.flatnonzero(~in_i)
    j, i = np.nonzero(np.array(dual, dtype=np.int64)[:, None] >> np.arange(degree) & 1)
    row = (r * np.arange(outside.size, dtype=np.int32)[:, None] + j.astype(np.int32)).ravel()
    edge = graph.eid[outside][:, i].ravel()
    # ... plus L_v(s_p) for each pivot edge p of a vertex v it meets
    hit = np.flatnonzero(pivot_of[edge] >= 0)
    k = pivot_of[edge[hit]]
    t, i = np.nonzero(words.reshape(-1)[k, None] >> np.arange(degree) & 1)
    row = np.concatenate([row, row[hit][t]])
    edge = np.concatenate([edge, graph.eid[chosen[k[t] // r], i]])
    row, edge = _odd_entries(row, edge, n)
    # 3. the residual is zero on the pivot columns
    left = pivot_of[edge] >= 0
    if left.any():
        fail(int(pivot_of[edge[np.argmax(left)]] // r),
             "leaves its pivot column in the residual")

    column = np.cumsum(pivot_of < 0, dtype=np.int32) - 1   # non-pivot edges, renumbered
    return r * chosen.size + residual_rank(r * outside.size, n - r * chosen.size,
                                           row, column[edge])


def _odd_entries(row, col, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """The GF(2) sum of the entries (row[t], col[t]), in row order, as int32;
    the sort key is int64, as rows x ncols passes 2^31 (q = 43)."""
    keys, count = np.unique(row.astype(np.int64) * ncols + col, return_counts=True)
    row, col = np.divmod(keys[count & 1 == 1], ncols)
    return row.astype(np.int32), col.astype(np.int32)


def require_packed_fits(what: str, nrows: int, ncols: int) -> None:
    """Refuse to pack H or a residual of more than spectra.MATRIX_BYTES_LIMIT
    bytes, rows x 64-column words x 8; called before it is packed."""
    from .spectra import MATRIX_BYTES_LIMIT

    size = nrows * ((ncols + 63) >> 6) * 8
    if size > MATRIX_BYTES_LIMIT:
        raise ValueError(
            f"{what} ({nrows} x {ncols}) would take "
            f"{size / 10**6:.0f} MB packed, above the {MATRIX_BYTES_LIMIT // 10**6} MB limit")


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The root of each vertex of the multigraph on range(n) with edges
    {a[t], b[t]}, the smallest vertex of its component: min-label
    propagation with pointer jumping (module docstring)."""
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        if np.array_equal(ra, rb):
            return root
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


def residual_rank(nrows: int, ncols: int, row: np.ndarray, col: np.ndarray) -> int:
    """Rank of the nrows x ncols GF(2) matrix with a 1 at each of the
    distinct entries (row[t], col[t]), given in row order.  Its columns
    of weight 1 or 2 are contracted, round by round, into rows -
    components (module docstring); what is left once none remains, or
    once a round keeps more than half of its rows, is packed, within
    require_packed_fits, and eliminated."""
    rank = 0
    while True:
        weight = np.bincount(col, minlength=ncols)
        light = (weight == 1) | (weight == 2)
        if not light.any():
            break
        # the rows of a light column are its smallest and largest; a
        # weight-1 column joins its row to the ground vertex, nrows
        first, last = np.full(ncols, nrows), np.full(ncols, -1)
        np.minimum.at(first, col, row)
        np.maximum.at(last, col, row)
        root = _components(nrows + 1, first[light],
                           np.where(weight[light] == 2, last[light], nrows))
        # the roots of the ground-free components, each of which becomes
        # one row: the sum of its rows on the heavy columns
        free = root == np.arange(nrows + 1)
        free[root[nrows]] = False
        free = free[:nrows]
        component = np.cumsum(free) - 1
        keep = ~light[col] & free[root[row]]
        row, col = _odd_entries(component[root[row[keep]]], col[keep], ncols)
        c0 = int(np.count_nonzero(free))
        rank += nrows - c0
        stalled = 2 * c0 > nrows
        used = np.bincount(col, minlength=ncols) > 0
        nrows, ncols, col = c0, int(used.sum()), (np.cumsum(used) - 1)[col]
        if stalled:
            break
    if row.size == 0:
        return rank
    require_packed_fits("the star-elimination residual", nrows, ncols)
    indptr = np.searchsorted(row, np.arange(nrows + 1))
    return rank + Gf2Matrix.from_supports(ncols, indptr, col).echelon().rank


# ---------------------------------------------------------------------------
# Rate and the unconditional counting bound
# ---------------------------------------------------------------------------

def measured_rate(inst: CayleyCodeInstance) -> Fraction:
    """1 - rank(H)/|E|, asserted against the counting bound
    2 r(B) - 1, which no correct construction can violate."""
    rate = Fraction(inst.n - inst.rank, inst.n)
    bound = 2 * inst.inner.rate - 1
    if rate < bound:
        raise CheckFailure(
            f"measured rate {rate} violates the counting bound {bound}"
        )
    return rate


# ---------------------------------------------------------------------------
# Invariance of the row space under the symmetry generators
# ---------------------------------------------------------------------------

@dataclass
class InvarianceReport:
    passed: bool
    perm_names: list[str]
    bad_perm: Optional[str] = None       # the first failure: permutation,
    bad_vertex: Optional[int] = None     # vertex and star position there,
    bad_position: Optional[int] = None   # None when tau breaks B-dual

    def require(self) -> None:
        if not self.passed:
            what = (f"maps position {self.bad_position} of the star of vertex "
                    f"{self.bad_vertex} off the image star"
                    if self.bad_position is not None else
                    f"permutes the star positions of vertex {self.bad_vertex} "
                    "by a map that does not preserve the dual of the inner code")
            raise CheckFailure(f"invariance failed: {self.bad_perm!r} {what}")


def _endpoints(graph: CayleyGraph, edges: np.ndarray):
    """Canonical endpoint a, its generator index j and the other
    endpoint adj[a, j] of each edge id, each shaped like `edges`."""
    a, j = np.moveaxis(graph.edge_canonical[edges], -1, 0)
    return a, j, graph.adj[a, j]


def _shared_endpoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The endpoint shared by the edges {a[:, 0], b[:, 0]} and
    {a[:, 1], b[:, 1]}, -1 where there is none."""
    (a0, a1), (b0, b1) = a.T, b.T
    return np.where((a0 == a1) | (a0 == b1), a0,
                    np.where((b0 == a1) | (b0 == b1), b0, -1))


def verify_invariance(inst: CayleyCodeInstance, perms: dict[str, np.ndarray]
                      ) -> InvarianceReport:
    """Each edge permutation maps rowspace(H) onto itself, proven for
    every row by a local certificate: no sampling, no elimination.

    For each pi, on img = pi[eid], the whole (|V|, degree) table, so
    both directed forms of every edge: pi is a bijection; every img[v]
    is the star of one vertex u(v), img[v, i] = eid[u(v), tau_v(i)] at
    every position i; and every distinct tau_v maps B-dual :=
    span(inst.dual_rows) onto itself, tau w having bit tau(i) = bit i of
    w.  Distinct edges share at most one endpoint, so u(v) can only be
    the shared endpoint of img[v, 0] and img[v, 1], as in _locate_rows.
    The first failure is named, in (vertex, position) order.

    Proof.  Row L_v(w) of H puts bit i of the dual word w on eid[v, i];
    pi moves it to eid[u(v), tau_v(i)], so pi(L_v(w)) = L_{u(v)}(tau_v w),
    a sum of rows of H at u(v) since tau_v w is in B-dual.  So the
    injective linear map pi sends rowspace(H) into, hence onto, itself.
    In build this also follows from single_orbit: the orbit is closed
    under every pi and spans rowspace(H).

    Sufficient, not necessary: on Z_19, S = [1, 18, 2, 17, 5, 14], with
    x -> -x and h = 0b1001 every row stays in rowspace(H), yet
    tau = (01)(23)(45) does not preserve B-dual.  On every instance the
    command line builds, tau is the identity (left translations) or the
    cyclic shift (the torus) and B is cyclic, so these pass by
    construction.
    """
    graph, names = inst.graph, sorted(perms)
    pair = [0, min(1, graph.degree - 1)]     # degree 1: the one edge twice
    rank_b = int_rank(inst.dual_rows)
    for name in names:
        perm = np.asarray(perms[name])
        img = perm[graph.eid]
        a, j, b = _endpoints(graph, img)
        u = _shared_endpoint(a[:, pair], b[:, pair])[:, None]
        tau = np.where(a == u, j, graph.inv_gen[j])
        hits = np.bincount(perm, minlength=graph.n_edges)[img]
        ok = (u >= 0) & (graph.eid[u, tau] == img) & (hits == 1)
        if not ok.all():
            v, i = np.unravel_index(np.argmin(ok), ok.shape)
            return InvarianceReport(False, names, name, int(v), int(i))
        taus, first = np.unique(tau, axis=0, return_index=True)
        for v, t in sorted(zip(first.tolist(), taus.tolist())):
            moved = [sum(((w >> i) & 1) << p for i, p in enumerate(t))
                     for w in inst.dual_rows]
            if not int_rank(moved) == rank_b == int_rank(inst.dual_rows + moved):
                return InvarianceReport(False, names, name, v, None)
    return InvarianceReport(True, names)


# ---------------------------------------------------------------------------
# Single-orbit generation of the dual
# ---------------------------------------------------------------------------

@dataclass
class SingleOrbitReport:
    passed: bool
    orbit_size: int
    rank_h: int
    orbit_rank: Optional[int]            # rank_h on a pass, None on a failure
    start_weight: int
    bad_vertex: Optional[int] = None     # first vertex whose local span differs
    bad_row: Optional[int] = None        # first orbit row that is not vertex-local

    def require(self) -> None:
        if self.passed:
            return
        if self.bad_row is not None:
            where = f"orbit row {self.bad_row} is not supported on one vertex star"
        else:
            where = (f"at vertex {self.bad_vertex} the orbit's local words do not "
                     "span the dual of the inner code")
        raise CheckFailure(
            f"single-orbit check failed: {where} "
            f"(orbit size {self.orbit_size}, rank(H) = {self.rank_h})"
        )


def row_orbit(inst: CayleyCodeInstance, perms: Sequence[np.ndarray],
              start_row: int = 0) -> np.ndarray:
    """Orbit of one constraint row under the edge permutations, one
    sorted support per row, in the order of the sequential BFS: one
    frontier at a time, images read in (frontier row, permutation) order,
    unseen ones kept in order of first encounter, which is that order by
    the argument in graphs.generate_group."""
    table = np.stack(perms).astype(np.int32)
    frontier = inst.indices[inst.indptr[start_row]:inst.indptr[start_row + 1]][None]
    k = frontier.shape[1]
    as_key = np.dtype((np.void, 4 * k))   # a support as one opaque value
    levels, seen = [frontier], frontier.view(as_key).ravel()
    while frontier.size:
        images = np.ascontiguousarray(table.T[frontier].swapaxes(1, 2)).reshape(-1, k)
        images.sort(axis=1)
        keys = images.view(as_key).ravel()
        new, first = np.unique(keys, return_index=True)
        unseen = ~np.isin(new, seen, assume_unique=True)   # as in generate_group
        new = new[unseen]
        frontier = images[np.sort(first[unseen])]
        levels.append(frontier)
        seen = np.concatenate([seen, new])
    return np.concatenate(levels)


def _locate_rows(inst: CayleyCodeInstance, orbit: np.ndarray
                 ) -> tuple[np.ndarray, list[int]]:
    """Per orbit row of distinct edges: the vertex whose star holds it
    (-1 if none) and its local mask there.  Distinct edges share at most
    one endpoint (no repeated generators), so only the shared endpoint
    of the first two edges can qualify; a weight-1 row lies on both
    endpoint stars and goes to the first one in Python's set order."""
    graph = inst.graph
    v, _, w = _endpoints(graph, orbit[:, :2])
    if orbit.shape[1] == 1:
        vertex = np.array([next(iter({a, b})) for a, b in
                           zip(v[:, 0].tolist(), w[:, 0].tolist())], dtype=np.int64)
    else:
        vertex = _shared_endpoint(v, w)
    on_star = orbit[:, :, None] == graph.eid[vertex][:, None, :]
    vertex[~on_star.any(axis=2).all(axis=1)] = -1
    packed = np.packbits(on_star.any(axis=1), axis=1, bitorder="little")
    return vertex, [int.from_bytes(row, "little") for row in packed.tolist()]


def verify_single_orbit(inst: CayleyCodeInstance, perms: Sequence[np.ndarray],
                        start_row: int = 0) -> SingleOrbitReport:
    """The orbit of the single starting constraint must span the whole
    row space of H, certified vertex by vertex.

    The check: every orbit row lies in the star of one vertex v, and at
    every v the local words M_v of the orbit rows found there span
    B-dual := span(inst.dual_rows).  The first vertex or orbit row that
    breaks this is named in the report.

    Why that is the whole check.  For a vertex v let L_v map a local
    word (bit i at generator position i) to the edge vector with the
    same bits on the star of v.  L_v is linear, and it is injective
    because generate_group rejects repeated generators and the
    identity: the star positions of v are distinct edges.  So an
    edge vector supported on the star has exactly one local word, the
    mask read off by _locate_rows.  The rows of H are the
    L_v(dual word), hence rowspace(H) = sum over v of L_v(B-dual).  When
    every orbit row is vertex-local, span(orbit) = sum over v of
    L_v(M_v).  If M_v = B-dual at every v the two sums are equal term by
    term, so rank(orbit) = rank(H) and every orbit row lies in
    rowspace(H); eliminating the orbit rows globally, or reducing them
    against H, can only confirm this.
    """
    orbit = row_orbit(inst, perms, start_row)
    rank_h = inst.rank

    def failed(**where) -> SingleOrbitReport:
        return SingleOrbitReport(False, len(orbit), rank_h, None, len(orbit[0]),
                                 **where)

    vertex, masks = _locate_rows(inst, orbit)
    if (vertex < 0).any():
        return failed(bad_row=int(np.argmax(vertex < 0)))

    local_masks: list[list[int]] = [[] for _ in range(inst.graph.n_vertices)]
    for v, mask in zip(vertex.tolist(), masks):
        local_masks[v].append(mask)
    rank_b = int_rank(inst.dual_rows)
    for v, local in enumerate(local_masks):
        if not int_rank(local) == rank_b == int_rank(inst.dual_rows + local):
            return failed(bad_vertex=v)
    return SingleOrbitReport(True, len(orbit), rank_h, rank_h, len(orbit[0]))


# ---------------------------------------------------------------------------
# The aggregated verification report
# ---------------------------------------------------------------------------

def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


@dataclass
class VerificationReport:
    params: dict
    graph: dict
    spectrum: dict
    bounds: dict
    checks: dict
    distance: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        """Parse report.json; ValueError naming a missing section."""
        payload = json.loads(text)
        for f in fields(cls):
            if not isinstance(payload, dict) or not isinstance(payload.get(f.name), dict):
                raise ValueError(f"report.json: section {f.name!r} is missing or not an object")
        return cls(**{f.name: payload[f.name] for f in fields(cls)})

    def read(self, path: str, kind: type | tuple):
        """The entry at a dotted path such as "params.ybar", checked to
        be of type `kind` (list: a list of integers); ValueError naming
        the key when it is missing or ill-typed."""
        section, *keys = path.split(".")
        node = getattr(self, section)
        for key in keys:
            if not isinstance(node, dict) or key not in node:
                raise ValueError(f"report.json: key {path!r} is missing")
            node = node[key]
        ok = isinstance(node, kind) and (isinstance(node, bool) == (kind is bool))
        if ok and kind is list:
            ok = all(isinstance(x, int) and not isinstance(x, bool) for x in node)
        if not ok:
            raise ValueError(f"report.json: key {path!r} has an ill-typed value {node!r}")
        return node

    @property
    def all_passed(self) -> bool:
        return all(self.checks[k] for k in
                   ("regular", "ramanujan", "edge_transitive", "rate_bound",
                    "invariance", "single_orbit", "classification"))


def run_verification(gens, graph: CayleyGraph, inner: CyclicCode, seed: int = 0,
                     inner_d_lower: int | None = None
                     ) -> tuple[VerificationReport, CayleyCodeInstance]:
    """Full pipeline on a built graph: classification, spectrum and the
    expansion certificate, edge transitivity, single orbit (which
    computes rank(H), so star elimination runs inside it), the code's
    rate bound and invariance.  The symmetry checks run on the two
    generating edge permutations of symmetry_edge_permutations.

    inner_d_lower, when given, is a proven distance bound for the inner
    code (e.g. its designed distance); otherwise the exact distance is
    computed when the inner dimension permits, and the distance bound
    of the edge code is reported as vacuous when no bound is known.
    That bound, from expansion, is the edge code's distance guarantee:
    no codeword is searched for, so the distance section is always
    {"mode": "skipped"}, and seed is recorded as params.seed and
    feeds nothing else.
    """
    from .cyclic import EXACT_DISTANCE_MAX_DIM, min_distance
    from .graphs import symmetry_edge_permutations, verify_edge_transitive
    from .quaternion import classify, expected_group_order
    from .spectra import is_ramanujan, ramanujan_bound, spectrum

    params = gens.params
    q = params.q

    variant = classify(gens)
    order_ok = graph.n_vertices == expected_group_order(q, params.e, variant)
    regular_ok = graph.degree == q + 1 and 2 * graph.n_edges == graph.n_vertices * (q + 1)
    bip_ok = graph.bipartite == (variant == "pgl")

    spec = spectrum(graph.group, graph.gens)
    ram = is_ramanujan(spec, q)

    perms = symmetry_edge_permutations(graph, gens)
    et_ok, orbit_edges = verify_edge_transitive(graph, perms)

    inst = build_parity_check(graph, inner)
    orbit_rep = verify_single_orbit(inst, list(perms.values()))
    rate = measured_rate(inst)
    if inner_d_lower is not None:
        delta_b = Fraction(inner_d_lower, inner.n)
        delta_source = "designed"
    elif inner.dim <= EXACT_DISTANCE_MAX_DIM:
        delta_b = Fraction(min_distance(inner).value, inner.n)
        delta_source = "exact"
    else:
        delta_b = Fraction(0)
        delta_source = "unknown"
    rate_lb, dist_lb = edge_code_bounds(inner.rate, delta_b, spec.lambda2)

    inv = verify_invariance(inst, perms)

    report = VerificationReport(
        params={
            "q": q, "e": params.e, "variant": variant,
            "delta": [params.delta],
            "residue_poly": list(params.residue_poly),
            "ybar": params.tables.digits(params.ybar),
            "gamma": [params.tables.digits(x) for x in gens.group.entries(gens.gamma)],
            "inner": {"n": inner.n, "k": inner.dim,
                      "h_hex": gf2poly.to_hex(inner.h)},
            "seed": seed,
        },
        graph={
            "vertices": graph.n_vertices, "edges": graph.n_edges,
            "degree": graph.degree, "bipartite": graph.bipartite,
            "order_matches_formula": order_ok,
        },
        spectrum={
            "method": spec.method, "lambda2": spec.lambda2,
            "lambda_min": spec.lambda_min, "tolerance": spec.tolerance,
            "ramanujan_bound": ramanujan_bound(q),
            "iterations": spec.iterations,
        },
        bounds={
            "rate_lower": _frac(rate_lb),
            "measured_rate": _frac(rate),
            "rank": inst.rank,
            "inner_delta": _frac(delta_b),
            "inner_delta_source": delta_source,
            "distance_lower": _frac(dist_lb),
        },
        checks={
            "classification": bip_ok and order_ok,
            "regular": regular_ok,
            "ramanujan": ram,
            "edge_transitive": et_ok,
            "edge_orbit_size": orbit_edges,
            "rate_bound": rate >= rate_lb,
            "invariance": inv.passed,
            "single_orbit": orbit_rep.passed,
            "single_orbit_rank": orbit_rep.orbit_rank,
        },
        distance={"mode": "skipped"},
    )
    return report, inst
