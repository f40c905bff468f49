"""Whole-array reference for the residual of star elimination.

cayleycodes.tanner sums the residual _BLOCK outside vertices at a time,
each block's keys on their own.  This module keeps the construction that
holds every entry at once: all rows L_u(w) and all pivot terms L_v(s_p)
in one key array, sorted whole, as the oracle of the blocked sum.
"""

from __future__ import annotations

import itertools

import numpy as np

STEP = 1 << 14        # sorted keys per step of odd_entries


def odd_entries(nrows: int, ncols: int, size: int, parts) -> tuple[np.ndarray, np.ndarray]:
    """The GF(2) sum of the `size` entries (row, col) of the parts, in row
    order as int32: their keys row * ncols + col (int64 once nrows x ncols
    passes 2^31) are sorted in place, and a run of equal keys survives when
    its length (from the run end before, -1 for the first) is odd; STEP
    keys a step, survivors move forward in the same buffer."""
    key = np.empty(size, dtype=np.int32 if nrows * ncols < 2**31 else np.int64)
    end = 0
    for row, col in parts:
        part = key[end:(end := end + row.size)]
        np.add(np.multiply(row, ncols, out=part, dtype=key.dtype), col, out=part)
    key.sort()
    kept, before = 0, -1
    for start in range(0, size, STEP):
        block = key[start:start + STEP + 1]        # and the next key, if any
        ends = start + np.flatnonzero(np.append(block[1:] != block[:-1], start + STEP >= size))
        survivors = key[ends[np.diff(ends, prepend=before) % 2 == 1]]   # odd runs
        key[kept:(kept := kept + survivors.size)] = survivors
        before = ends[-1] if ends.size else before
    key = key[:kept]
    return tuple(f(key, ncols, out=np.empty(kept, dtype=np.int32), casting="unsafe")
                 for f in (np.floor_divide, np.remainder))


def star_residual(inst) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(nrows, ncols, row, col) of the residual that star_rank hands to
    residual_rank, built whole: row r x + j is L_u(dual[j]) for u the
    x-th vertex outside I, plus L_v(s_p) for each pivot edge p of a vertex
    v it meets; the pivot columns, all zero, are dropped and the others
    renumbered in edge order."""
    graph, dual, n = inst.graph, inst.dual_rows, inst.n
    r, degree = len(dual), graph.degree
    chosen, pos, words = inst.pivots
    in_i = np.zeros(graph.n_vertices, dtype=bool)
    in_i[chosen] = True
    pivot_of = np.full(n, -1, dtype=np.int64)
    pivot_of[graph.eid[chosen[:, None], pos].ravel()] = np.arange(pos.size)
    outside = np.flatnonzero(~in_i)
    j, i = np.nonzero(np.array(dual, dtype=np.int64)[:, None] >> np.arange(degree) & 1)
    row = (r * np.arange(outside.size)[:, None] + j).ravel()
    edge = graph.eid[outside[:, None], i].ravel()
    hit = np.flatnonzero(pivot_of[edge] >= 0)
    k = pivot_of[edge[hit]]
    word, vertex = words.reshape(-1)[k], chosen[k // r]
    parts = ((row[hit[t]], graph.eid[vertex[t], b]) for b, t in
             enumerate(np.flatnonzero(word >> b & 1) for b in range(degree)))
    row, edge = odd_entries(r * outside.size, n, edge.size + int(np.bitwise_count(word).sum()),
                            itertools.chain([(row, edge)], parts))
    assert (pivot_of[edge] < 0).all()
    col = (np.cumsum(pivot_of < 0) - 1)[edge]
    return r * outside.size, n - r * chosen.size, row, col
