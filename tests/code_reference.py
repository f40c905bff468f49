"""Brute-force oracles for the edge code on small graphs.

The library proves its claims about H without enumerating codewords.
These two enumerations define the code twice more, independently: by
spanning the nullspace of H, and by filtering every edge vector through
the per-vertex local-view definition.  Tests and demo 04 require the
two sets to be equal on toys small enough to enumerate, and read local
views with local_view.
"""

from __future__ import annotations

from cayleycodes.cyclic import gray_codewords

from gf2_reference import reference_nullspace, to_ints

BRUTE_FORCE_MAX_EDGES = 24


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
