"""The code on the edges of a Cayley graph, and its verification.

A word indexed by the undirected edges is a codeword when, at every
vertex g, the local view (the q+1 incident edge bits read in generator
order, position i at the edge toward g*s_i) lies in the inner cyclic
code B.  The parity-check matrix H therefore has one row per vertex per
dual-basis word of B: row (v, w), number r v + j for w = dual_rows[j]
(r = n - k words), is eid[v] at the bits of w, sorted.  Rows are a spanning
set of the dual, possibly redundant; the rank of H, not its row count,
defines the code.

H is never held: alist_tables makes its alist lines from adj, eid,
inv_gen and the dual words, _BLOCK vertices at a time, with no entry
array, sort or column pointer of the size of H.  Row (v, w) has the
weight of w as its degree, and distinct entries, as a Cayley graph has
no multi-edges.  Edge e has one canonical flag (a, i), b = adj[a, i] >
a, and lies on the stars of a (at i) and b (at inv_gen[i]) alone, so
its rows are (a, w) for the w with bit i, then (b, w) for the w with
bit inv_gen[i]: ascending and distinct, as a < b.  With c_i words
having bit i its degree is c_i + c_{inv_gen[i]}, the largest of which
over i is max_col, as every flag of vertex 0 is canonical; the
canonical flags of a block of vertices, read row-major, are its edges
in id order (graphs).

Reading the view in generator order, with S ordered by torus powers, is
the one convention that turns the torus action on views into the
cyclic coordinate shift of B; every check below breaks if the ordering
drifts, which is exactly what makes them worth running.

Rank by star elimination.  The code is a Tanner code (Tanner, IEEE
T-IT 1981): H is the union of the local checks L_v(B-dual), L_v placing
a local word on the star of v, so most of its rank is local.  This is
the structured Gaussian elimination of LaMacchia and Odlyzko (CRYPTO
1990) applied to stars; the rank never packs H.

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
residual_rank adds rows - c0 and replaces R by N B (the empty columns
are dropped once, before packing); a light column either joins two
components or joins a row to ground, so c0 < rows and the rounds end.
A round costs O(entries), so the contraction also stops after a round
that keeps more than half of its rows, and the packed kernel takes the
rest: the rows halve in every round before that one, so there are at
most log2(rows) + 1 rounds, where a cascade (an all-ones triangle loses
two rows a round) would take rows / 2 of them.  When every column has
weight 0 or 2, as for x^4 + 1, N B is empty after the first round and
rank R = rows - components.

The components are found by min-label propagation with pointer
jumping: each vertex points at a vertex of its component with no
larger index.  A pass reads the light columns _STEP at a time; each
step hooks the larger of the two roots of each of its columns under
the smaller one, then jumps pointers until each vertex points at a
root, and the passes stop at one that finds both ends of every column
at one root.  A pass that does not stop hooks at least one root, so the
passes end, and the roots left are one per component, its smallest
vertex.

Working memory: star elimination holds its inputs and outputs plus
bounded scratch.  The pivot loop writes two int32 per vertex of I (the
vertex and the number of its P_v among the distinct ones); the
information-set check reads one pivot position or one complement word
at a time; the residual's int32 entries are summed _BLOCK outside
vertices at a time, each block's keys sorted on their own (the rows of
a block are contiguous and the keys row-major), and its columns
renumbered _STEP entries at a time.  A contraction round holds one int32
per column and two bool masks, compacts the two rows of each light
column in place, and reads the entries _STEP at a time, as _gather does
(a whole-array fancy index would copy an int32 index to int64).  Only
what contraction leaves is packed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import gf2poly
from .cyclic import CyclicCode, dual_basis_rows, edge_code_bounds
from .errors import CheckFailure, ConstructionError
from .gf2 import Gf2Matrix, independent
from .graphs import CayleyGraph, EdgeOrbit, word_moved, word_orbit
from .spectra import SpectrumReport, is_ramanujan, ramanujan_bound

_STEP = 1 << 14        # keys, entries or light columns per step
_BLOCK = 1 << 8        # vertices per block of the residual sum or of H's lines


class StarPivots(NamedTuple):
    """The pivots of star elimination (module docstring), one entry per
    vertex of I in id order."""
    vertices: np.ndarray                 # (|I|,) the vertices of I
    positions: np.ndarray                # (|I|, r) star positions P_v
    words: np.ndarray                    # (|I|, r) dual words, systematic on P_v


@dataclass(eq=False)                     # compared by identity: the graph is arrays
class CayleyCodeInstance:
    graph: CayleyGraph
    inner: CyclicCode
    dual_rows: list[int]                 # basis of B-dual, integer words

    @cached_property
    def pivots(self) -> StarPivots:
        """Picked from graph and dual_rows on the first rank, checked there."""
        return star_pivots(self.graph, self.dual_rows)

    @property
    def n(self) -> int:
        return self.graph.n_edges

    @property
    def matrix(self) -> Gf2Matrix:
        """H, one row per (vertex, dual word), packed afresh from h_rows on
        every read (an echelon consumes it).  Nothing in the package reads
        it: the tests pack H as the input of their oracles, and the
        benchmark tracer's tanner.assemble span records its row count."""
        require_packed_fits("H", len(self.dual_rows) * self.graph.n_vertices, self.n)
        rows = np.concatenate(list(h_rows(self)))
        indptr = np.append(0, np.cumsum(np.count_nonzero(rows, axis=1)))
        return Gf2Matrix.from_supports(self.n, indptr, rows[rows > 0] - 1)

    @cached_property
    def rank(self) -> int:
        """rank(H) by star elimination, without packing H."""
        return star_rank(self)

    @property
    def dim(self) -> int:
        return self.n - self.rank


def build_parity_check(graph: CayleyGraph, inner: CyclicCode) -> CayleyCodeInstance:
    """The code on the edges of graph with local code inner: the graph and
    the dual words, from which h_rows and alist_tables make H."""
    if inner.n != graph.degree:
        raise ConstructionError(f"inner code length {inner.n} != graph degree {graph.degree}")
    return CayleyCodeInstance(graph, inner, dual_basis_rows(inner))


def alist_tables(inst: CayleyCodeInstance) -> Iterator[np.ndarray]:
    """The alist of H as tables for alist.dumps_alist, made _BLOCK vertices
    at a time (module docstring); a degree line is one table, of one byte
    per entry.  Slot t of the column of the edge with canonical flag
    (a, i) is a near[t, i] + adj[a, i] far[t, i] + offset[t, i] (0 in the
    padding), made on all the flags of a block; np.compress keeps the
    canonical ones (a broadcast over the slots or a boolean index took 4
    to 6 times as long)."""
    graph, r, d = inst.graph, len(inst.dual_rows), inst.graph.degree
    bit = _bits(inst.dual_rows, d)
    count, weight = bit.sum(axis=0, dtype=np.int32), bit.sum(axis=1, dtype=np.int32)
    degree = count + count[graph.inv_gen]
    max_col, max_row = int(degree.max(initial=0)), int(weight.max(initial=0))
    near, far, offset = (np.zeros((max_col, d), dtype=np.int32) for _ in range(3))
    for i, words in enumerate(np.concatenate([bit, bit[:, graph.inv_gen]]).T):
        near[:count[i], i] = far[count[i]:degree[i], i] = r
        offset[:degree[i], i] = np.flatnonzero(words) % r + 1

    def flags():                        # per block: adj, its vertices, canonical flags in id order
        for s in range(0, graph.n_vertices, _BLOCK):
            b = graph.adj[s:s + _BLOCK]
            vertex = np.arange(s, s + len(b), dtype=np.int32)[:, None]
            yield b, vertex, (b > vertex).ravel()

    yield np.array([[inst.n, r * graph.n_vertices], [max_col, max_row]])
    line, end = np.empty((1, inst.n), dtype=np.min_scalar_type(max_col)), 0
    for b, _, keep in flags():
        part = np.compress(keep, np.tile(degree, len(b)))
        line[0, end:(end := end + part.size)] = part
    yield line
    del line                            # not held while the lines are made
    yield np.tile(weight.astype(np.min_scalar_type(max_row)), graph.n_vertices)[None]
    for b, vertex, keep in flags():
        table = np.empty(b.shape + (max_col,), dtype=np.int32)
        for t in range(max_col):
            np.add(b * far[t], vertex * near[t] + offset[t], out=table[..., t])
        yield np.compress(keep, table.reshape(b.size, max_col), axis=0)
    yield from h_rows(inst)


def _bits(words: Sequence[int], degree: int) -> np.ndarray:
    """The bits of each word, (len(words), degree) bool."""
    return np.array(words, dtype=np.int64)[:, None] >> np.arange(degree) & 1 == 1


def h_rows(inst: CayleyCodeInstance) -> Iterator[np.ndarray]:
    """The rows of H, _BLOCK vertices at a time, as tables of their 1-based
    edge ids zero-padded to the largest weight of a dual word."""
    graph, r = inst.graph, len(inst.dual_rows)
    bit = _bits(inst.dual_rows, graph.degree)
    weight = bit.sum(axis=1)
    position = np.argsort(~bit, axis=1, kind="stable")[:, :weight.max(initial=0)]
    pad = np.arange(position.shape[1]) >= weight[:, None]      # after each word's bits
    for s in range(0, graph.n_vertices, _BLOCK):
        star = np.where(pad, inst.n, graph.eid[s:s + _BLOCK][:, position])   # sorts last
        yield ((np.sort(star, axis=2) + 1) * ~pad).reshape(len(star) * r, position.shape[1])


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


def star_pivots(graph: CayleyGraph, dual_rows: Sequence[int]) -> StarPivots:
    """The greedy of the module docstring (I is empty when B-dual is).
    The loop writes each vertex of I and the number of its P_v among the
    distinct ones into two int32 arrays of |V| entries; each distinct P_v
    is brought to systematic form once, after the loop."""
    r, cols = len(dual_rows), _columns(dual_rows, graph.degree)
    if r == 0:
        return StarPivots(np.zeros(0, dtype=np.int32), np.zeros((0, 0), dtype=np.int32),
                          np.zeros((0, 0), dtype=np.int64))
    OUT, OPEN, IN = 0, 1, 2
    state = bytearray([OPEN]) * graph.n_vertices
    chosen, form = (np.empty(graph.n_vertices, dtype=np.int32) for _ in range(2))
    forms: dict[tuple, int] = {}             # P_v in taken order -> its number
    size = 0
    for v in range(graph.n_vertices):
        if state[v] != OPEN:
            continue
        nbrs = graph.adj[v].tolist()          # per open vertex: no list of all of adj
        near = [state[u] for u in nbrs]
        # receivers first, then open neighbours, each in position order
        order = sorted(range(graph.degree), key=near.__getitem__)
        taken = independent(cols, order[:len(order) - near.count(IN)], r)
        if len(taken) < r:
            state[v] = OUT
            continue
        state[v] = IN
        for p in taken:
            state[nbrs[p]] = OUT
        chosen[size], form[size] = v, forms.setdefault(tuple(taken), len(forms))
        size += 1
    form = form[:size]
    return StarPivots(chosen[:size].copy(),
                      np.array(list(forms), dtype=np.int32).reshape(-1, r)[form],
                      np.array([_systematic(dual_rows, p) for p in forms],
                               dtype=np.int64).reshape(-1, r)[form])


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
    # basis is read off the systematic form on the first information set;
    # one pivot position and one complement word at a time
    first = independent(_columns(dual, degree), limit=r)
    ref = _systematic(dual, first)[:len(first)]
    ok = np.ones(chosen.size, dtype=bool)
    for b, unit in enumerate(np.eye(r, dtype=np.int64)):
        ok &= (words >> pos[:, b, None] & 1 == unit).all(axis=1)
    for f in range(degree):
        if f not in first:
            word = 1 << f | sum(1 << p for p, w in zip(first, ref) if w >> f & 1)
            ok &= (np.bitwise_count(words & word) & 1 == 0).all(axis=1)
    if not ok.all():
        a = int(np.argmin(ok))
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

    # slot[e] is the residual column of a non-pivot edge e, and -1 - k for
    # pivot k = r a + b, the edge at position pos[a, b] of vertex chosen[a]
    pivot = graph.eid[chosen[:, None], pos].ravel()
    slot = np.ones(n, dtype=bool)
    slot[pivot] = False
    slot = np.cumsum(slot, dtype=np.int32)
    slot -= 1
    slot[pivot] = -1 - np.arange(pivot.size, dtype=np.int32)
    del pivot
    # residual row r x + j is L_u(dual[j]) for u = outside[x] ...
    outside = np.flatnonzero(~in_i)
    j, i = (x.astype(np.int32) for x in np.nonzero(_bits(dual, degree)))
    # ... plus L_v(s_p) for each pivot edge p of a vertex v it meets: the
    # other end of p is outside I, at position inv_gen[pos] of its star,
    # where the rows of the dual words with that bit meet it
    size = outside.size * i.size + int(
        (np.bitwise_count(words) * np.bincount(i, minlength=degree)[graph.inv_gen[pos]]).sum())

    def blocks():
        """The entries of the rows of _BLOCK outside vertices at a time."""
        for x in range(0, outside.size, _BLOCK):
            u = outside[x:x + _BLOCK]
            row = (r * np.arange(x, x + u.size, dtype=np.int32)[:, None] + j).ravel()
            edge = graph.eid[u[:, None], i].ravel()
            hit = np.flatnonzero(slot[edge] < 0)
            k = -1 - slot[edge[hit]]
            word, vertex = words.reshape(-1)[k], chosen[k // r]
            yield r * x, r * (x + u.size), [(row, edge)] + [
                (row[hit[t]], graph.eid[vertex[t], b])
                for b, t in enumerate(np.flatnonzero(word >> b & 1) for b in range(degree))]

    row, col = _odd_entries(n, size, blocks())
    # 3. the residual is zero on the pivot columns; the others are renumbered
    col = _gather(slot, col, out=col)
    if col.size and col.min() < 0:
        fail(int(-1 - col[np.argmax(col < 0)]) // r, "leaves its pivot column in the residual")
    del slot
    return r * chosen.size + residual_rank(r * outside.size, n - r * chosen.size, row, col)


def _gather(table: np.ndarray, index: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """table[index], _STEP indices at a time (out may be index): a
    whole-array fancy index would first copy an int32 index to int64."""
    out = np.empty(index.size, dtype=table.dtype) if out is None else out
    for s in range(0, index.size, _STEP):
        out[s:s + _STEP] = table[index[s:s + _STEP]]
    return out


def _odd_entries(ncols: int, size: int, blocks) -> tuple[np.ndarray, np.ndarray]:
    """The GF(2) sum of `size` entries (row, col), in row order as int32.
    They come in blocks (start, stop, parts), the rows of a block in
    range(start, stop) and after those of the blocks before it, so each
    block is summed on its own: the keys (row - start) * ncols + col of its
    parts (int64 once (stop - start) x ncols passes 2^31) are sorted in
    place, a run of equal keys survives when its length (from the run end
    before, -1 for the first) is odd, _STEP keys a step, and the survivors
    are appended to the outputs."""
    out = np.empty(size, dtype=np.int32), np.empty(size, dtype=np.int32)
    kept = 0
    for start, stop, parts in blocks:
        key = np.empty(sum(row.size for row, _ in parts),
                       dtype=np.int32 if (stop - start) * ncols < 2**31 else np.int64)
        end = 0
        for row, col in parts:
            part = key[end:(end := end + row.size)]
            np.subtract(row, start, out=part, dtype=key.dtype)
            np.add(np.multiply(part, ncols, out=part), col, out=part)
        key.sort()
        before = -1
        for s in range(0, key.size, _STEP):
            step = key[s:s + _STEP + 1]                # and the next key, if any
            ends = s + np.flatnonzero(np.append(step[1:] != step[:-1], s + _STEP >= key.size))
            survivors = key[ends[np.diff(ends, prepend=before) % 2 == 1]]   # odd runs
            row, col = (x[kept:kept + survivors.size] for x in out)
            np.floor_divide(survivors, ncols, out=row, casting="unsafe")
            row += start
            np.remainder(survivors, ncols, out=col, casting="unsafe")
            kept += survivors.size
            before = ends[-1] if ends.size else before
    return out[0][:kept], out[1][:kept]


def require_packed_fits(what: str, nrows: int, ncols: int) -> None:
    """Refuse to pack H or a residual of more than spectra.MATRIX_BYTES_LIMIT
    bytes, rows x 64-column words x 8; called before it is packed.  That
    one copy is the whole peak of its elimination, which runs in place."""
    from .spectra import MATRIX_BYTES_LIMIT

    size = nrows * ((ncols + 63) >> 6) * 8
    if size > MATRIX_BYTES_LIMIT:
        raise ValueError(
            f"{what} ({nrows} x {ncols}) would take "
            f"{size / 10**6:.0f} MB packed, above the {MATRIX_BYTES_LIMIT // 10**6} MB limit")


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The root of each vertex of the multigraph on range(n) with edges
    {a[t], b[t]}, the smallest vertex of its component: min-label
    propagation with pointer jumping, _STEP edges a step (module
    docstring)."""
    root = np.arange(n, dtype=np.int32)
    while True:
        joined = False
        for s in range(0, a.size, _STEP):
            ra, rb = root[a[s:s + _STEP]], root[b[s:s + _STEP]]
            if np.array_equal(ra, rb):
                continue
            joined = True
            np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
            while not np.array_equal(jumped := root[root], root):
                root = jumped
        if not joined:
            return root


def _compress(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """x[mask], written over the front of x _STEP entries at a time."""
    kept = 0
    for s in range(0, x.size, _STEP):
        part = x[s:s + _STEP][mask[s:s + _STEP]]
        x[kept:(kept := kept + part.size)] = part
    return x[:kept]


def residual_rank(nrows: int, ncols: int, row: np.ndarray, col: np.ndarray) -> int:
    """Rank of the nrows x ncols GF(2) matrix with a 1 at each of the
    distinct entries (row[t], col[t]), given in row order.  Its columns
    of weight 1 or 2 are contracted, round by round, into rows -
    components (module docstring); what is left once none remains, or
    once a round keeps more than half of its rows, is packed, within
    require_packed_fits, with its empty columns dropped, and eliminated.
    The per-entry passes run _STEP entries at a time."""
    rank, stalled = 0, False
    while True:
        weight, ones = np.zeros(ncols, dtype=np.int32), np.ones(_STEP, dtype=np.int32)
        for s in range(0, col.size, _STEP):
            part = col[s:s + _STEP]
            np.add.at(weight, part, ones[:part.size])
        light = (weight == 1) | (weight == 2)
        if stalled or not light.any():
            break
        # the rows of a light column are its smallest and largest; a
        # weight-1 column joins its row to the ground vertex, nrows
        one = weight == 1
        del weight
        first, last = np.full(ncols, nrows, dtype=np.int32), np.full(ncols, -1, dtype=np.int32)
        np.minimum.at(first, col, row)
        np.maximum.at(last, col, row)
        last[one] = nrows
        del one
        root = _components(nrows + 1, _compress(first, light), _compress(last, light))
        del first, last
        # the ground-free components become one row each: the sum of its
        # rows on the heavy columns
        free = root == np.arange(nrows + 1)
        free[root[nrows]] = False
        c0 = int(np.count_nonzero(free))
        component = (np.cumsum(free, dtype=np.int32) - 1)[root[:nrows]]
        free = free[root[:nrows]]             # per row: its component is ground-free
        keep = np.empty(row.size, dtype=bool)
        for s in range(0, row.size, _STEP):
            keep[s:s + _STEP] = ~light[col[s:s + _STEP]] & free[row[s:s + _STEP]]
        row, col = row[keep], col[keep]
        del keep, light
        row, col = _odd_entries(ncols, row.size, [(0, c0, [(_gather(component, row), col)])])
        rank += nrows - c0
        nrows, stalled = c0, 2 * c0 > nrows
    if row.size == 0:
        return rank
    used = weight > 0
    ncols = int(np.count_nonzero(used))
    col = _gather(np.cumsum(used, dtype=np.int32) - 1, col)
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

def _star_failure_text(perm: str, vertex: Optional[int], position: Optional[int]) -> str:
    if position is not None:
        return (f"{perm!r} maps position {position} of the star of vertex {vertex} "
                "off the image star")
    return (f"{perm!r} permutes the star positions by a map that "
            "does not preserve the dual of the inner code")


@dataclass
class InvarianceReport:
    passed: bool
    perm_names: list[str]
    bad_perm: Optional[str] = None       # the first failure: star map,
    bad_vertex: Optional[int] = None     # vertex and star position there,
    bad_position: Optional[int] = None   # both None when tau breaks B-dual

    def require(self) -> None:
        if not self.passed:
            raise CheckFailure("invariance failed: " + _star_failure_text(
                self.bad_perm, self.bad_vertex, self.bad_position))


def _star_failure(inst: CayleyCodeInstance, orbit: EdgeOrbit
                  ) -> Optional[tuple[str, Optional[int], Optional[int]]]:
    """The first (map, vertex, position) where a map is no star map; else
    the first (map, None, None), in name order, whose tau does not map
    B-dual onto itself; else None."""
    if orbit.bad is not None:
        return orbit.bad
    rank_b = len(independent(inst.dual_rows))
    for name, tau in orbit.taus:
        moved = [word_moved(w, tau) for w in inst.dual_rows]
        if not len(independent(moved)) == rank_b == len(independent(inst.dual_rows + moved)):
            return name, None, None
    return None


def verify_invariance(inst: CayleyCodeInstance, orbit: EdgeOrbit) -> InvarianceReport:
    """Each star map's edge permutation maps rowspace(H) onto itself,
    proven row by row by a local certificate: no sampling, no elimination.

    The check, on the certificate of graphs.edge_orbit: every (u, tau) is
    a star map, whose edge permutation pi is eid[v, i] -> eid[u(v),
    tau(i)], and every tau maps B-dual := span(inst.dual_rows) onto
    itself, tau w having bit tau(i) = bit i of w.  The first failure is
    named: the map, and where it is no star map, vertex and position.

    Proof.  Row L_v(w) of H puts bit i of the dual word w on eid[v, i];
    pi moves it to eid[u(v), tau(i)], so pi(L_v(w)) = L_{u(v)}(tau w),
    a sum of rows of H at u(v) since tau w is in B-dual.  So the
    injective linear map pi sends rowspace(H) into, hence onto, itself.

    Sufficient, not necessary, and verify_single_orbit asks the same:
    on Z_19, S = [1, 18, 2, 17, 5, 14], with x -> -x and h = 0b1001
    every row stays in rowspace(H), yet tau = (01)(23)(45) does not
    preserve B-dual, so both checks fail there.  On every instance the
    command line builds, tau is the identity (left translations) or the
    cyclic shift (the torus) and B is cyclic: these pass by construction.
    """
    bad = _star_failure(inst, orbit)
    return InvarianceReport(bad is None, orbit.names, *(bad or ()))


# ---------------------------------------------------------------------------
# Single-orbit generation of the dual
# ---------------------------------------------------------------------------

@dataclass
class SingleOrbitReport:
    passed: bool
    orbit_size: int                      # |orbit of vertex 0| x |Gamma.w0|
    rank_h: int
    orbit_rank: Optional[int]            # rank_h on a pass, None on a failure
    failure: Optional[str] = None        # what broke, naming where

    def require(self) -> None:
        if not self.passed:
            raise CheckFailure(
                f"single-orbit check failed: {self.failure} "
                f"(orbit size {self.orbit_size}, rank(H) = {self.rank_h})")


def row_orbit(inst: CayleyCodeInstance, orbit: EdgeOrbit) -> list[int]:
    """Gamma.w0, breadth first from w0 = dual_rows[0] (none when B-dual
    is empty): the local words at vertex 0 of the orbit of row 0 of H,
    L_0(w0), with Gamma generated by orbit.schreier."""
    return word_orbit(inst.dual_rows[0], orbit.schreier) if inst.dual_rows else []


def verify_single_orbit(inst: CayleyCodeInstance, orbit: EdgeOrbit) -> SingleOrbitReport:
    """The orbit of the single constraint L_0(w0), row 0 of H with
    w0 = dual_rows[0], under the group of graphs.edge_orbit spans the
    whole row space of H, certified on the stabiliser of vertex 0.

    The check: every map is a star map (one that is not fails this,
    invariance and edge transitivity alike, named by map, vertex and
    position), every tau maps B-dual := span(inst.dual_rows) onto
    itself, the orbit of vertex 0 is all of V, and span(Gamma.w0) =
    B-dual; the first failure is named.

    Proof.  Let L_v map a local word (bit i at position i) to the edge
    vector with the same bits on the star of v; L_v is injective, as
    generate_group rejects repeated generators and the identity, and
    rowspace(H) = sum over v of L_v(B-dual).  A star map sends L_v(w)
    to L_{u(v)}(tau w), so with g = p_v h as in graphs.edge_orbit the
    orbit of the row is {L_v(path[v] x) : v reached, x in Gamma.w0};
    orbit_size = |V| |Gamma.w0| counts its rows when w0 has weight 2 or
    more (two stars share at most one edge).  path[v] is a product of
    maps tau, so path[v] B-dual = B-dual, and the orbit rows at v span
    L_v(path[v] span(Gamma.w0)) = L_v(B-dual).  With every vertex
    reached, span(orbit) = rowspace(H): rank(orbit) = rank(H), and
    every orbit row lies in rowspace(H).  Conversely, for star maps the
    check holds exactly when the orbit's local words span B-dual at
    every vertex: at vertex 0 that is span(Gamma.w0) = B-dual, and then
    tau = path[u(v)] o sigma o path[v]^-1, sigma in Gamma, maps B-dual
    onto itself, as Gamma permutes Gamma.w0.
    """
    words = row_orbit(inst, orbit)
    rank_h = inst.rank
    bad, rank_b = _star_failure(inst, orbit), len(independent(inst.dual_rows))
    if bad is not None:
        failure = _star_failure_text(*bad)
    elif orbit.missed is not None:
        failure = f"the permutations never reach vertex {orbit.missed} from vertex 0"
    elif not len(independent(words)) == rank_b == len(independent(inst.dual_rows + words)):
        failure = (f"the stabiliser orbit of the start word spans rank {len(independent(words))}, "
                   f"not the dual of the inner code (rank {rank_b})")
    else:
        failure = None
    return SingleOrbitReport(failure is None, orbit.vertices * len(words), rank_h,
                             None if failure else rank_h, failure)


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


def run_verification(gens, graph: CayleyGraph, spec: SpectrumReport, inner: CyclicCode,
                     seed: int = 0, inner_d_lower: int | None = None
                     ) -> tuple[VerificationReport, CayleyCodeInstance]:
    """Full pipeline on a built graph and its spectrum (spectra.spectrum
    of the generators, which the caller computes before the closure):
    classification, the expansion certificate, edge transitivity, single
    orbit (which computes rank(H), so star elimination runs inside it),
    the code's rate bound and invariance.  The three symmetry checks read one
    certificate, graphs.edge_orbit of the star maps that
    symmetry_edge_permutations takes from the group.

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
    from .graphs import edge_orbit, symmetry_edge_permutations
    from .quaternion import classify, expected_group_order

    params = gens.params
    q = params.q

    variant = classify(gens)
    order_ok = graph.n_vertices == expected_group_order(q, params.e, variant)
    regular_ok = graph.degree == q + 1 and 2 * graph.n_edges == graph.n_vertices * (q + 1)
    bip_ok = graph.bipartite == (variant == "pgl")

    ram = is_ramanujan(spec, q)

    orbit = edge_orbit(graph, symmetry_edge_permutations(graph, gens))

    inst = build_parity_check(graph, inner)
    orbit_rep = verify_single_orbit(inst, orbit)
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

    inv = verify_invariance(inst, orbit)

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
            "edge_transitive": orbit.transitive,
            "edge_orbit_size": orbit.size,
            "rate_bound": rate >= rate_lb,
            "invariance": inv.passed,
            "single_orbit": orbit_rep.passed,
            "single_orbit_rank": orbit_rep.orbit_rank,
        },
        distance={"mode": "skipped"},
    )
    return report, inst
