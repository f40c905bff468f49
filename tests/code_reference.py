"""Brute-force oracles for the edge code on small graphs.

The library proves its claims about H without enumerating codewords.
These two enumerations define the code twice more, independently: by
spanning the nullspace of H, and by filtering every edge vector through
the per-vertex local-view definition.  Tests and demo 04 require the
two sets to be equal on toys small enough to enumerate, and read local
views with local_view; h_csr lays H out from its definition.
"""

from __future__ import annotations

import numpy as np

from cayleycodes.cyclic import gray_codewords

from gf2_reference import reference_nullspace, to_ints

BRUTE_FORCE_MAX_EDGES = 24


def h_csr(inst) -> tuple[np.ndarray, np.ndarray]:
    """H as a CSR pair (int64 indptr, int32 indices), from its definition
    and one table per dual word: row v r + j is eid[v] at the bits of
    dual word j, sorted."""
    eid = inst.graph.eid
    bits = [[i for i in range(eid.shape[1]) if w >> i & 1] for w in inst.dual_rows]
    table = np.concatenate([eid[:, :0]] + [np.sort(eid[:, b], axis=1) for b in bits], axis=1)
    indptr = np.append(0, np.cumsum(np.tile([len(b) for b in bits], len(eid)), dtype=np.int64))
    return indptr, table.reshape(-1)


def local_view(inst, word: int, vertex: int) -> int:
    """The inner-code-length word read off the star of a vertex."""
    view = 0
    for i, e in enumerate(inst.graph.eid[vertex].tolist()):
        if (word >> e) & 1:
            view |= 1 << i
    return view


def codeword_set_from_nullspace(inst, max_dim: int = 20) -> set[int]:
    """All codewords by spanning the nullspace of H (small codes only)."""
    basis = reference_nullspace(inst.matrix)
    if basis.nrows > max_dim:
        raise ValueError(f"nullspace dimension {basis.nrows} exceeds {max_dim}")
    return {0, *gray_codewords(to_ints(basis))}


def codeword_set_brute_force(inst) -> set[int]:
    """All codewords by filtering every edge vector through the
    per-vertex local-view definition; the independent oracle for the
    parity-check construction."""
    n_e = inst.n
    if n_e > BRUTE_FORCE_MAX_EDGES:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_MAX_EDGES} edges")
    inner_words = {0}
    word = 0
    basis = inst.inner.basis()
    for i in range(1, 1 << inst.inner.dim):
        word ^= basis[(i & -i).bit_length() - 1]
        inner_words.add(word)
    stars = inst.graph.eid.tolist()
    out = set()
    for cand in range(1 << n_e):
        ok = True
        for star in stars:
            view = 0
            for i, e in enumerate(star):
                if (cand >> e) & 1:
                    view |= 1 << i
            if view not in inner_words:
                ok = False
                break
        if ok:
            out.add(cand)
    return out
