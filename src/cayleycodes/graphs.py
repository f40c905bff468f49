"""Cayley graphs by breadth-first closure, with indexed undirected edges.

Group elements are int64 keys and a group is an object with an
`identity` key and numpy-broadcasting `mul` and `inverse` on key
arrays: PglGroup for the projective matrix groups (the tests and
demos also use a toy Z_n on integer keys).  Vertices are the elements
reached from the identity by right multiplication with the generator
list; vertex numbering is BFS order, so every downstream index is
reproducible.  Vertex ids of keys are found by binary search in the
sorted keys.

Flags and edges.  The flag (v, i) is the directed edge from v along
s_i, numbered v * degree + i; its partner is the flag (adj[v, i],
inv_gen[i]) back along s_i^-1, and the two are the undirected edge.
The flag before its partner is the canonical one; this also handles
involutive generators without double counting.  Canonical means
adj[v, i] > v: the partner is w * degree + j with w = adj[v, i] != v
(the identity is not a generator, so there are no loops) and i, j <
degree.  eid numbers the canonical flags in row-major order, which is
the first-encounter order of the edges over (vertex, generator) pairs,
and gives each other flag its partner's number; generate_group does
this one block of vertices at a time, and its docstring proves that
each copy reads a number already set.

CayleyGraph holds only what its readers take: the vertex keys and their
index, adj, inv_gen, eid and the 2-coloring; export_edges finds the
canonical flags again from adj, one block of vertices at a time, and
they come out in edge-id order.  Vertex and edge ids are int32
(|V| x degree < 2^31); the closure and export_edges work _CHUNK at a
time.

Symmetries are star maps (u, tau), acting on the flags by (v, i) ->
(u(v), tau(i)); edge_orbit proves each a graph automorphism by a check
run _CHUNK flags at a time, and no |E|-long edge permutation is formed.
Its BFS gives each vertex the class of its tree path, a product of the
maps tau: at most min(|V|, |<taus>|) classes, at most degree when
<taus> = <pi>.  A Schreier generator depends only on its pair of
classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .alist import decimal_lines
from .errors import ConstructionError
from .quaternion import GeneratorSet

_CHUNK = 1 << 14       # products, edges or flags per step


class KeyIndex:
    """Positions of int64 keys in a key list, by binary search."""

    def __init__(self, keys: np.ndarray):
        self.order = np.argsort(keys, kind="stable")
        self.sorted = keys[self.order]

    def find(self, keys) -> np.ndarray:
        """Position of each key in the list, -1 where it is absent."""
        pos = np.minimum(np.searchsorted(self.sorted, keys), len(self.sorted) - 1)
        return np.where(self.sorted[pos] == keys, self.order[pos], -1)


@dataclass
class CayleyGraph:
    group: object              # key arithmetic: identity, mul, inverse
    gens: np.ndarray           # generator keys, in generator order
    keys: np.ndarray           # vertex keys, in vertex id (BFS) order
    index: KeyIndex            # vertex ids of keys
    adj: np.ndarray            # (|V|, degree) target vertex ids
    inv_gen: np.ndarray        # index of each generator's inverse
    eid: np.ndarray            # (|V|, degree) undirected edge ids
    n_edges: int
    bipartite: bool
    color: np.ndarray | None   # 2-coloring when bipartite

    @property
    def n_vertices(self) -> int:
        return len(self.keys)

    @property
    def degree(self) -> int:
        return len(self.gens)

    def vertex_ids(self, keys) -> np.ndarray:
        """Vertex ids of group elements given by key; raises when one
        is not a vertex."""
        ids = self.index.find(keys)
        if (ids < 0).any():
            raise ConstructionError(
                f"{int((ids < 0).sum())} group elements are not vertices of the graph")
        return ids

    def export_edges(self, write: Callable | None = None) -> bytearray:
        """graph.edges: "vertices edges degree", then per edge id "a b i" for
        its canonical flag (a, i), b = adj[a, i] > a; to write as by
        decimal_lines.  The canonical flags of each block of _CHUNK //
        degree vertices, read in row-major order, are the block's edges in
        id order."""
        out = bytearray()
        write = write or out.extend
        write(f"{self.n_vertices} {self.n_edges} {self.degree}\n".encode())
        step = max(1, _CHUNK // self.degree)
        position = np.tile(np.arange(self.degree, dtype=np.int32), step)  # per flag of a block
        for s in range(0, self.n_vertices, step):
            b = self.adj[s:s + step]
            rows = np.arange(s, s + len(b), dtype=np.int32)
            canonical = b > rows[:, None]
            f = np.flatnonzero(canonical)
            table = np.empty((f.size, 3), dtype=np.int32)
            table[:, 0] = np.repeat(rows, np.count_nonzero(canonical, axis=1))
            table[:, 1] = b.reshape(-1)[f]
            table[:, 2] = position[f]
            del f, canonical            # only the table is held while it is written
            decimal_lines(table, write)
        return out


def generate_group(group, gens: Sequence[int], cap: int) -> CayleyGraph:
    """Closure of the generator keys from the identity, as a Cayley graph.

    Validates before any work: generators distinct, closed under
    inverse, identity excluded (loops must not occur).  Raises when the
    closure exceeds `cap` vertices.

    The closure runs one BFS frontier at a time: the frontier is
    multiplied by all generators, _CHUNK products at a time, read in
    row-major (vertex, generator) order; products that are vertices get
    their ids (adj), and the new keys are numbered in order of first
    encounter (np.unique with return_index).  This is exactly the
    numbering of the sequential BFS that pops one vertex at a time and
    numbers each unseen g * s on sight.  In that BFS every vertex at
    distance k + 1 from the identity is first met while vertices at
    distance k are popped, and those are popped in id order after all
    vertices at distance < k and before any at distance > k; so the
    sequential numbering is level by level, and inside a level it is
    the first-encounter order of the unseen products over (frontier
    vertex in id order, generator in list order) -- the order used
    here.  adj and eid therefore do not depend on which of the two loops
    built them.  Needs cap x degree < 2^31 (int32 ids).

    The flags are then paired _CHUNK // degree vertices at a time, in
    row-major order.  Per block: the partner of flag f = (v, i) is
    adj[v, i] * degree + inv_gen[i]; the handshake requires
    partner[partner[f]] = f; the canonical flags (f < partner[f]) take
    the next edge ids in row-major order; and each other flag copies its
    partner's id.  That id is already set: a non-canonical f has partner
    p < f (p != f, there are no loops), and the handshake at f gives
    partner[p] = f > p, so p is canonical and was numbered in its own
    block, this one or an earlier one, before any copy of this block.
    Raises AssertionError ("handshake failed") at the first block where
    the flags do not pair up, or when the count of canonical flags is
    not |V| x degree / 2.
    """
    gens = np.asarray(gens, dtype=np.int64)
    if not len(gens):
        raise ValueError("empty generator set")
    if len(set(gens.tolist())) != len(gens):
        raise ConstructionError("generator set has repeated elements")
    if (gens == group.identity).any():
        raise ConstructionError("identity in generator set would create loops")
    inv_gen = KeyIndex(gens).find(group.inverse(gens))
    if (inv_gen < 0).any():
        raise ConstructionError(
            "generator set is not symmetric: inverse of generator "
            f"{int(np.argmax(inv_gen < 0))} is missing"
        )

    t = len(gens)
    if cap * t >= 2**31:
        raise ConstructionError(f"cap x degree = {cap * t} does not fit int32 ids")
    frontier = keys = np.array([group.identity], dtype=np.int64)
    levels, rows, index, step = [frontier], [], KeyIndex(keys), max(1, _CHUNK // t)
    while frontier.size:
        # the vertex id of each product; the unseen ones (-1) make the next level
        ids, unseen = np.empty(frontier.size * t, dtype=np.int32), []
        for s in range(0, frontier.size, step):
            prod = group.mul(frontier[s:s + step, None], gens).reshape(-1)
            ids[s * t:s * t + prod.size] = found = index.find(prod)
            unseen.append(prod[found < 0])
        unseen = np.concatenate(unseen)
        # distinct keys first: np.unique without return_index imports numpy.ma (1.3 MB)
        new, first = np.unique(unseen, return_index=True)
        if len(keys) + len(new) > cap:
            raise ConstructionError(f"group closure exceeded cap = {cap}")
        order = np.argsort(first)            # the new keys by first encounter
        ids[ids < 0] = len(keys) + np.argsort(order)[np.searchsorted(new, unseen)]
        rows.append(ids)
        levels.append(frontier := new[order])
        keys = np.concatenate(levels)
        index = KeyIndex(keys)
    n = len(keys)
    adj = np.concatenate(rows).reshape(n, t)
    del rows

    # the flags, step vertices at a time: the handshake, then the ids of
    # the canonical flags, then the copies from their partners
    inv = inv_gen.astype(np.int32)
    eid, n_edges = np.empty((n, t), dtype=np.int32), 0
    flat_adj, flat_eid = adj.reshape(-1), eid.reshape(-1)
    for s in range(0, n, step):
        flags = np.arange(s * t, min(n, s + step) * t, dtype=np.int32)
        partner = adj[s:s + step] * np.int32(t) + inv
        # the partner of flag (v, i) has position inv_gen[i], so its own
        # partner has position inv_gen[inv_gen[i]]
        if not np.array_equal((flat_adj[partner] * np.int32(t) + inv[inv]).reshape(-1), flags):
            raise AssertionError("handshake failed: directed edges did not pair up")
        partner = partner.reshape(-1)
        canonical = flags < partner
        counted = np.cumsum(canonical, dtype=np.int32)
        block = flat_eid[flags[0]:flags[-1] + 1]
        block[canonical] = counted[canonical] + np.int32(n_edges - 1)
        block[~canonical] = flat_eid[partner[~canonical]]
        n_edges += int(counted[-1])
    if 2 * n_edges != n * t:
        raise AssertionError("handshake failed: directed edges did not pair up")

    # the graph is connected, so it is bipartite exactly when the parity
    # of the BFS level is a proper 2-coloring
    color = np.repeat(np.arange(len(levels)) % 2, [len(lv) for lv in levels]).astype(np.int8)
    bipartite = all((color[adj[s:s + step]] != color[s:s + step, None]).all()
                    for s in range(0, n, step))
    return CayleyGraph(group, gens, keys, index, adj, inv_gen, eid, n_edges, bipartite,
                       color if bipartite else None)


def graph_from_generators(gens: GeneratorSet, cap: int | None = None) -> CayleyGraph:
    """Cayley graph of the group generated by a quaternion-derived
    generator set, with the cap defaulting to the full PGL order."""
    from .quaternion import expected_group_order

    if cap is None:
        cap = expected_group_order(gens.params.q, gens.params.e, "pgl")
    return generate_group(gens.group, gens.elements, cap)


# ---------------------------------------------------------------------------
# Star maps and the edge orbit
# ---------------------------------------------------------------------------

StarMap = tuple[np.ndarray, np.ndarray]   # (u, tau): vertex of each vertex, position of each position


def symmetry_edge_permutations(graph: CayleyGraph, gens: GeneratorSet
                               ) -> dict[str, StarMap]:
    """Star maps (u, tau) of two generators of the semi-direct product
    <L_s (s in S), T>, straight from the group: "left_s0", u(v) = s0 v
    and tau the identity, and "torus_t0", u(v) = t0 v t0^-1 and tau = pi,
    t0 s_i t0^-1 = s_pi(i); u is int32 per vertex, from a whole-array
    product over the vertex keys, and tau int32 per position.  Raises,
    naming the length, when pi is not one cycle through all of S.

    Proof that two suffice.  On directed edges T^-1 is (v, i) ->
    (t0^-1 v t0, pi^-1(i)), so T L_s T^-1 is (v, i) -> (t0 s t0^-1 v, i):
    T L_s T^-1 = L_{t0 s t0^-1}.  When pi is one cycle, the T^k L_s0 T^-k
    are L_s for every s in S, so <L_s0, T> = <L_S, T>, and every orbit,
    of edges and of rows of H, is the orbit under the two maps (a BFS
    needs no inverses: a permutation's inverse is a power of it).
    """
    group, t0 = graph.group, gens.t0
    t0_inv = group.inverse(t0)
    gen_perm = KeyIndex(graph.gens).find(group.mul(group.mul(t0, graph.gens), t0_inv))
    if (gen_perm < 0).any():
        raise ConstructionError("torus conjugation left the generator set")
    cycle, i = 1, int(gen_perm[0])      # pi permutes S: conjugation is injective
    while i != 0:
        cycle, i = cycle + 1, int(gen_perm[i])
    if cycle != graph.degree:
        raise ConstructionError(f"torus conjugation is not a single {graph.degree}-cycle "
                                f"on S: the cycle through s0 has length {cycle}")
    left_s0 = graph.vertex_ids(group.mul(graph.gens[0], graph.keys))
    vertex_map = graph.vertex_ids(group.mul(group.mul(t0, graph.keys), t0_inv))
    return {"left_s0": (left_s0.astype(np.int32), np.arange(graph.degree, dtype=np.int32)),
            "torus_t0": (vertex_map.astype(np.int32), gen_perm.astype(np.int32))}


class EdgeOrbit(NamedTuple):
    """The certificate of edge_orbit, from the named star maps; tanner
    reads it for invariance and single orbit."""
    names: list[str]                     # the star maps, in name order
    bad: tuple[str, int, int] | None     # first (name, vertex, position) of no star map
    vertices: int                        # size of the orbit of vertex 0
    missed: int | None                   # the first vertex outside it
    size: int | None                     # edges in the orbit of edge 0; None when bad
    transitive: bool                     # size == |E|
    taus: list[tuple[str, list[int]]]    # per name, its position map tau
    schreier: np.ndarray                 # (k, degree) the distinct Schreier generators


def edge_orbit(graph: CayleyGraph, maps: dict[str, StarMap]) -> EdgeOrbit:
    """The orbit of edge 0 under the group G that the named star maps
    generate, by one BFS over the vertices and Schreier's lemma (Seress,
    Permutation Group Algorithms, CUP 2003, 4.1).

    Star maps.  Each (u, tau) must pass one check, run on _CHUNK // degree
    vertices at a time: u is a bijection of V, tau one of the positions,
    and u(adj[v, i]) = adj[u(v), tau(i)] at every vertex v and position
    i.  The first (name, vertex, position) where a map fails, in row-major
    order, is `bad`, and nothing else is computed: every check built on
    this certificate fails.

    The check suffices.  f(v, i) = (u(v), tau(i)) is a bijection of the
    flags.  For w = adj[v, i] the check at (w, inv_gen[i]) and at (v, i)
    gives adj[u(w), tau(inv_gen[i])] = u(v) = adj[u(w), inv_gen[tau(i)]].
    The generators are distinct, so u(w) is joined to u(v) at one
    position only: tau(inv_gen[i]) = inv_gen[tau(i)], and f commutes with
    the reversal (v, i) -> (adj[v, i], inv_gen[i]) of the flags of each
    edge.  So f, a graph automorphism, acts on the edges by the bijection
    eid[v, i] -> eid[u(v), tau(i)], and the flag (0, 0) is edge 0.

    Orbit.  The BFS from vertex 0 through the maps u reaches each vertex
    v by a tree path; p_v is the product of the maps along it and path[v]
    sends each position i of vertex 0 to the position of v that p_v
    moves it to: reaching u(v) from v through f gives p_u(v) = f p_v and
    path[u(v)] = tau o path[v].  So path[v] lies in the group <taus>, and
    there are at most min(|V|, |<taus>|) distinct paths (at most degree
    on the command-line instances, where <taus> = <pi>); the BFS keeps
    the class cls[v] of path[v] and composes tau o path once per (class,
    map) pair of a level.  The Schreier generators p_u(v)^-1 f p_v, over
    every reached v and every f, generate the stabiliser of vertex 0 in
    the flag group (Schreier's lemma); on the positions of vertex 0 they
    act as sigma = path[u(v)]^-1 o tau o path[v], which depends on v only
    through (cls[v], cls[u(v)]), and generate its image Gamma:
    `schreier` holds one sigma per distinct pair.  A g that maps vertex 0
    to v is p_v h with h in the stabiliser, so the orbit O of the flag
    (0, 0) is {(v, path[v][x]) : v reached, x in Gamma.0}, of |reached|
    |Gamma.0| flags, with Gamma.0 the word_orbit of the word 1 << 0.  G
    commutes with the reversal, so the reversal of O is the orbit of the
    flag (w, j) = (adj[0, 0], inv_gen[0]): O itself when (w, j) is in O,
    else disjoint from it.  The orbit of edge 0 thus has |O| / 2 or |O|
    edges (`size`), and G is edge transitive iff that is |E|.  An orbit
    of a finite group is the closure under its generators, so no BFS
    needs inverses.  tanner.row_orbit runs Gamma on words.
    """
    names = sorted(maps)
    n, d, m = graph.n_vertices, graph.degree, len(maps)
    u = np.empty((m, n), dtype=np.int32)
    tau = np.empty((m, d), dtype=np.int32)
    step = max(1, _CHUNK // d)
    for p, name in enumerate(names):
        u[p], tau[p] = maps[name]
        once = np.bincount(u[p], minlength=n) == 1              # both one-to-one
        tau_once = np.bincount(tau[p], minlength=d)[tau[p]] == 1
        for s in range(0, n, step):                             # step vertices at a time
            us = u[p, s:s + step]
            ok = once[us, None] & tau_once
            ok &= u[p][graph.adj[s:s + step]] == graph.adj[us[:, None], tau[p]]
            if not ok.all():
                v, i = np.unravel_index(np.argmin(ok), ok.shape)
                return EdgeOrbit(names, (name, s + int(v), int(i)), 0, None, None, False, [],
                                 np.zeros((0, d), dtype=np.int32))
    cls = np.full(n, -1, dtype=np.int32)
    cls[0] = 0
    # the distinct paths, numbered level by level, keyed by their bytes:
    # tuple keys would outlive the call in the tuple free list
    classes = {np.arange(d, dtype=np.int32).tobytes(): 0}
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        # images in (frontier vertex, map) order, each new vertex
        # reached through its first one; a path per (class, map) pair
        new, first = np.unique(u[:, frontier].T.ravel(), return_index=True)
        fresh = cls[new] < 0
        at, p = np.divmod(first[fresh], m)
        pair = cls[frontier[at]].astype(np.int64) * m + p
        pairs = np.unique(pair, return_index=True)[0]
        a, b = np.divmod(pairs, m)
        paths = np.frombuffer(b"".join(classes), dtype=np.int32).reshape(-1, d)
        made = [classes.setdefault(row.tobytes(), len(classes))
                for row in tau[b[:, None], paths[a]]]
        frontier = new[fresh]
        cls[frontier] = np.array(made, dtype=np.int32)[np.searchsorted(pairs, pair)]
    paths = np.frombuffer(b"".join(classes), dtype=np.int32).reshape(-1, d)
    # inverse[c, paths[c][i]] = i, scattered: an argsort would page in its sort code here
    inverse = np.empty_like(paths)
    inverse[np.arange(len(paths))[:, None], paths] = np.arange(d, dtype=np.int32)
    # sigma depends on v only through (cls[v], cls[u(v)]): one per distinct pair
    reached = np.flatnonzero(cls >= 0)
    sigma = [np.zeros((0, d), dtype=np.int32)]
    for p in range(m):
        pairs = np.unique(cls[reached].astype(np.int64) * len(paths) + cls[u[p, reached]],
                          return_index=True)[0]
        a, b = np.divmod(pairs, len(paths))
        sigma.append(inverse[b[:, None], tau[p][paths[a]]])
    sigma = np.concatenate(sigma)
    schreier = sigma[np.sort(np.unique(sigma.view(f"V{4 * d}").ravel(), return_index=True)[1])]
    # Gamma.0 as the orbit of the word 1, then whether the reversed flag
    # (w, j) of (0, 0) is in its orbit
    gamma_0 = set(word_orbit(1, schreier))
    w, j = graph.adj[0, 0], graph.inv_gen[0]
    paired = cls[w] >= 0 and 1 << int(inverse[cls[w], j]) in gamma_0
    size = len(reached) * len(gamma_0) // (2 if paired else 1)
    return EdgeOrbit(names, None, len(reached),
                     None if len(reached) == n else int(np.argmin(cls >= 0)),
                     size, size == graph.n_edges,
                     [(name, t.tolist()) for name, t in zip(names, tau)], schreier)


def word_moved(word: int, tau: Sequence[int]) -> int:
    """tau w: bit tau(i) is bit i of w."""
    return sum(1 << tau[i] for i in range(word.bit_length()) if word >> i & 1)


def word_orbit(word: int, perms) -> list[int]:
    """The orbit of an integer word under the permutations (rows of
    positions) that word_moved applies, breadth first from the word."""
    perms, words, seen = np.asarray(perms).tolist(), [word], {word}
    for w in words:                      # the list grows as it is read
        new = [x for x in dict.fromkeys(word_moved(w, s) for s in perms) if x not in seen]
        seen.update(new)
        words += new
    return words
