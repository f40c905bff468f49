"""Cayley graphs by breadth-first closure, with indexed undirected edges.

Vertices are group elements reached from the identity by right
multiplication with the generator list; vertex numbering is BFS order,
so every downstream index is reproducible.  Elements only need to be
hashable and to support `*` and `.inverse()`, which covers projective
matrices as well as the additive toy groups used in tests and demos.

The undirected edge {(g, s_i), (g s_i, s_i^-1)} is keyed by the smaller
of the two directed forms (vertex id, generator index) in lexicographic
order, which also handles involutive generators without double
counting.  Edge ids are assigned in first-encounter order over
(vertex, generator) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConstructionError
from .projective import ProjectiveMatrix, SdpElement
from .quaternion import GeneratorSet


class AddGroupElement:
    """Element of Z_n written multiplicatively; toy group for tests."""

    __slots__ = ("n", "v")

    def __init__(self, n: int, v: int):
        self.n = n
        self.v = v % n

    def __mul__(self, other: "AddGroupElement") -> "AddGroupElement":
        if other.n != self.n:
            raise ValueError("mixed cyclic groups")
        return AddGroupElement(self.n, self.v + other.v)

    def inverse(self) -> "AddGroupElement":
        return AddGroupElement(self.n, -self.v)

    def __eq__(self, other):
        return isinstance(other, AddGroupElement) and other.n == self.n and other.v == self.v

    def __hash__(self):
        return hash((self.n, self.v))

    def __repr__(self):
        return f"{self.v} (mod {self.n})"


@dataclass
class CayleyGraph:
    gens: list
    vertices: list
    vindex: dict
    adj: np.ndarray            # (|V|, degree) target vertex ids
    inv_gen: list[int]         # index of each generator's inverse
    eid: np.ndarray            # (|V|, degree) undirected edge ids
    edge_canonical: list[tuple[int, int]]  # canonical directed rep per edge id
    n_edges: int
    bipartite: bool
    color: np.ndarray | None   # 2-coloring when bipartite

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def degree(self) -> int:
        return len(self.gens)

    def edge_id(self, v: int, i: int) -> int:
        return int(self.eid[v, i])

    def star_edge_ids(self, v: int) -> list[int]:
        """Edge ids incident to v, in generator order (the local view order)."""
        return [int(e) for e in self.eid[v]]

    def endpoint_vertices(self, e: int) -> tuple[int, int]:
        v, i = self.edge_canonical[e]
        return v, int(self.adj[v, i])

    def adjacency(self) -> sp.csr_matrix:
        n = self.n_vertices
        rows = np.repeat(np.arange(n), self.degree)
        cols = self.adj.reshape(-1)
        data = np.ones(n * self.degree)
        return sp.csr_matrix((data, (rows, cols)), shape=(n, n))

    def export_edges(self) -> str:
        lines = [f"{self.n_vertices} {self.n_edges} {self.degree}"]
        for e in range(self.n_edges):
            v, i = self.edge_canonical[e]
            lines.append(f"{v} {self.adj[v, i]} {i}")
        return "\n".join(lines) + "\n"


def generate_group(gens: Sequence, identity, cap: int) -> CayleyGraph:
    """Closure of the generator set from the identity, as a Cayley graph.

    Validates before any work: generators distinct, closed under
    inverse, identity excluded (loops must not occur).  Raises when the
    closure exceeds `cap` vertices.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("empty generator set")
    if len(set(gens)) != len(gens):
        raise ConstructionError("generator set has repeated elements")
    if identity in gens:
        raise ConstructionError("identity in generator set would create loops")
    lookup = {s: i for i, s in enumerate(gens)}
    inv_gen = []
    for i, s in enumerate(gens):
        j = lookup.get(s.inverse())
        if j is None:
            raise ConstructionError(
                f"generator set is not symmetric: inverse of generator {i} is missing"
            )
        inv_gen.append(j)

    t = len(gens)
    vindex = {identity: 0}
    vertices = [identity]
    adj_rows: list[list[int]] = []
    head = 0
    while head < len(vertices):
        g = vertices[head]
        row = []
        for s in gens:
            h = g * s
            j = vindex.get(h)
            if j is None:
                j = len(vertices)
                if j >= cap:
                    raise ConstructionError(f"group closure exceeded cap = {cap}")
                vindex[h] = j
                vertices.append(h)
            row.append(j)
        adj_rows.append(row)
        head += 1

    n = len(vertices)
    adj = np.array(adj_rows, dtype=np.int32)

    eid = np.full((n, t), -1, dtype=np.int32)
    edge_canonical: list[tuple[int, int]] = []
    for v in range(n):
        for i in range(t):
            if eid[v, i] >= 0:
                continue
            w = int(adj[v, i])
            j = inv_gen[i]
            key = min((v, i), (w, j))
            e = len(edge_canonical)
            edge_canonical.append(key)
            eid[v, i] = e
            eid[w, j] = e
    n_edges = len(edge_canonical)
    if 2 * n_edges != n * t:
        raise AssertionError("handshake failed: directed edges did not pair up")

    # bipartition by 2-coloring
    color = np.full(n, -1, dtype=np.int8)
    color[0] = 0
    stack = [0]
    bipartite = True
    while stack:
        v = stack.pop()
        cv = color[v]
        for w in adj[v]:
            if color[w] == -1:
                color[w] = 1 - cv
                stack.append(int(w))
            elif color[w] == cv:
                bipartite = False
    return CayleyGraph(gens, vertices, vindex, adj, inv_gen, eid,
                       edge_canonical, n_edges, bipartite,
                       color if bipartite else None)


def graph_from_generators(gens: GeneratorSet, cap: int | None = None) -> CayleyGraph:
    """Cayley graph of the group generated by a quaternion-derived
    generator set, with the cap defaulting to the full PGL order."""
    from .quaternion import expected_group_order

    if cap is None:
        cap = expected_group_order(gens.params.q, gens.params.e, "pgl")
    ident = ProjectiveMatrix.identity(gens.field)
    return generate_group(gens.elements, ident, cap)


# ---------------------------------------------------------------------------
# Edge permutations and orbits
# ---------------------------------------------------------------------------

def edge_permutation(graph: CayleyGraph, vertex_map: Sequence[int],
                     gen_perm: Sequence[int]) -> np.ndarray:
    """Permutation of undirected edge ids induced by a graph map acting
    as `vertex_map` on vertices and `gen_perm` on generator indices.
    Verified to be a bijection."""
    perm = np.empty(graph.n_edges, dtype=np.int64)
    for e, (v, i) in enumerate(graph.edge_canonical):
        v2 = vertex_map[v]
        i2 = gen_perm[i]
        perm[e] = graph.eid[v2, i2]
    if len(np.unique(perm)) != graph.n_edges:
        raise ConstructionError("edge action is not a bijection")
    return perm


def left_translation_vertex_map(graph: CayleyGraph, g) -> np.ndarray:
    """Vertex permutation v -> g * v (left multiplication)."""
    out = np.empty(graph.n_vertices, dtype=np.int64)
    for v, elem in enumerate(graph.vertices):
        out[v] = graph.vindex[g * elem]
    return out


def sdp_vertex_map(graph: CayleyGraph, h: SdpElement) -> np.ndarray:
    """Vertex map v -> h.g * (t v t^-1) of a semi-direct product element."""
    t_mat = h.t_mat
    t_inv = t_mat.inverse()
    out = np.empty(graph.n_vertices, dtype=np.int64)
    for v, elem in enumerate(graph.vertices):
        out[v] = graph.vindex[h.g * (t_mat * elem * t_inv)]
    return out


def sdp_gen_perm(graph: CayleyGraph, h: SdpElement) -> list[int]:
    """Permutation of generator indices s -> t s t^-1; raises when the
    conjugate leaves the generator set."""
    lookup = {s: i for i, s in enumerate(graph.gens)}
    t_mat = h.t_mat
    perm = []
    for s in graph.gens:
        img = s.conjugate_by(t_mat)
        j = lookup.get(img)
        if j is None:
            raise ConstructionError("torus conjugation left the generator set")
        perm.append(j)
    return perm


def sdp_edge_permutation(graph: CayleyGraph, h: SdpElement) -> np.ndarray:
    return edge_permutation(graph, sdp_vertex_map(graph, h), sdp_gen_perm(graph, h))


def symmetry_edge_permutations(graph: CayleyGraph, gens: GeneratorSet
                               ) -> dict[str, np.ndarray]:
    """Edge permutations of the standard generators of the semi-direct
    product: one left translation per s in S, plus the torus generator."""
    identity_perm = list(range(graph.degree))
    perms: dict[str, np.ndarray] = {}
    for i, s in enumerate(graph.gens):
        vm = left_translation_vertex_map(graph, s)
        perms[f"left_s{i}"] = edge_permutation(graph, vm, identity_perm)
    ident = ProjectiveMatrix.identity(gens.field)
    h_t0 = SdpElement(ident, gens.t0, gens.t0_embedded)
    perms["torus_t0"] = sdp_edge_permutation(graph, h_t0)
    return perms


def edge_orbit(perms: Sequence[np.ndarray], n_points: int, start: int = 0) -> int:
    """Size of the orbit of one point under permutations of
    range(n_points): edge ids for the edge action, vertex ids for the
    vertex action."""
    seen = np.zeros(n_points, dtype=bool)
    seen[start] = True
    frontier = [start]
    count = 1
    while frontier:
        nxt = []
        for e in frontier:
            for perm in perms:
                f = int(perm[e])
                if not seen[f]:
                    seen[f] = True
                    nxt.append(f)
                    count += 1
        frontier = nxt
    return count


def verify_edge_transitive(graph: CayleyGraph, gens: GeneratorSet) -> tuple[bool, int]:
    """Whether the semi-direct product generators reach every undirected
    edge from edge 0."""
    perms = list(symmetry_edge_permutations(graph, gens).values())
    size = edge_orbit(perms, graph.n_edges)
    return size == graph.n_edges, size


def verify_vertex_transitive(graph: CayleyGraph) -> bool:
    """Left translations act transitively on vertices (orbit of vertex 0
    under v -> s * v covers everything)."""
    maps = [left_translation_vertex_map(graph, s) for s in graph.gens]
    return edge_orbit(maps, graph.n_vertices) == graph.n_vertices


# ---------------------------------------------------------------------------
# Edge list import/export
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> tuple[int, int, int, list[tuple[int, int, int]]]:
    """Parse the text export: header "|V| |E| degree", then one
    "u v gen_index" line per edge."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        n, m, deg = (int(tok) for tok in lines[0].split())
        edges = [tuple(int(tok) for tok in ln.split()) for ln in lines[1:]]
    except (ValueError, IndexError) as exc:
        raise ValueError(f"malformed edge list: {exc}") from exc
    if len(edges) != m:
        raise ValueError(f"edge list header says {m} edges, found {len(edges)}")
    return n, m, deg, edges  # type: ignore[return-value]
