"""Slow object-level reference for the keyed group layer.

cayleycodes.graphs computes the Cayley graph and its symmetry edge
permutations on int64 keys, a whole array at a time.  This module keeps
the one-element-at-a-time construction on FieldElem/ProjectiveMatrix
objects (and on the Z_n toy elements), hashed into dicts, as an
independent oracle for the tests; plus ZnGroup, Z_n on integer keys,
the toy group the tests and demos build Cayley graphs of, and the
object-level helpers the tests use: proj, conj_action, SdpElement, sdp_act_directed_edge,
parse_edge_list, reference_export_edges (the graph.edges writer with one
f-string per edge), verify_vertex_transitive and flag_map_keeps_edges; and
on keyed graphs canonical_flags, the flag of each edge by edge id, which
CayleyGraph does not keep, left_translation_maps, all |S| left
translations, where cayleycodes.graphs computes only the one by s0, and
edge_permutation, the edge map that a star map (u, tau) induces, which
cayleycodes.graphs never forms but the oracles read.  The matrix objects
come from field_reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from cayleycodes.errors import ConstructionError
from cayleycodes.graphs import CayleyGraph, KeyIndex

from field_reference import FiniteField, ProjectiveMatrix, decode, matrix_key
from orbit_reference import point_orbit


class AddGroupElement:
    """Element of Z_n written multiplicatively; the object toy group."""

    __slots__ = ("n", "v")

    def __init__(self, n: int, v: int):
        self.n = n
        self.v = v % n

    def __mul__(self, other: "AddGroupElement") -> "AddGroupElement":
        return AddGroupElement(self.n, self.v + other.v)

    def inverse(self) -> "AddGroupElement":
        return AddGroupElement(self.n, -self.v)

    def __eq__(self, other):
        return isinstance(other, AddGroupElement) and other.n == self.n and other.v == self.v

    def __hash__(self):
        return hash((self.n, self.v))


class ZnGroup:
    """Z_n written multiplicatively on integer keys: the toy key group
    the tests and demos build Cayley graphs of."""

    def __init__(self, n: int):
        self.n = n
        self.identity = 0

    def mul(self, x, y) -> np.ndarray:
        return np.add(x, y, dtype=np.int64) % self.n

    def inverse(self, x) -> np.ndarray:
        return np.negative(x, dtype=np.int64) % self.n


def proj(field: FiniteField, entries: Sequence) -> ProjectiveMatrix:
    return ProjectiveMatrix.make(field, entries)


def conj_action(t: ProjectiveMatrix, g: ProjectiveMatrix) -> ProjectiveMatrix:
    """t g t^-1 with t given over the base field and g over the ambient
    field; t is embedded first when the fields differ."""
    if t.field != g.field:
        t = t.embed(g.field)
    return g.conjugate_by(t)


class SdpElement:
    """Pair (g, t) with g in the ambient matrix group and t a torus
    matrix over the same field; product (g1, t1)(g2, t2) =
    (g1 * t1 g2 t1^-1, t1 t2)."""

    __slots__ = ("g", "t_mat")

    def __init__(self, g: ProjectiveMatrix, t_mat: ProjectiveMatrix):
        self.g = g
        self.t_mat = t_mat

    @classmethod
    def identity(cls, field: FiniteField) -> "SdpElement":
        return cls(ProjectiveMatrix.identity(field), ProjectiveMatrix.identity(field))

    def __mul__(self, other: "SdpElement") -> "SdpElement":
        return SdpElement(self.g * other.g.conjugate_by(self.t_mat), self.t_mat * other.t_mat)

    def inverse(self) -> "SdpElement":
        t_inv = self.t_mat.inverse()
        return SdpElement(self.g.inverse().conjugate_by(t_inv), t_inv)

    def __eq__(self, other):
        return (isinstance(other, SdpElement)
                and other.g == self.g and other.t_mat == self.t_mat)

    def __hash__(self):
        return hash((self.g, self.t_mat))


def sdp_act_directed_edge(h: SdpElement, vertex: ProjectiveMatrix, gen_index: int,
                          gens: Sequence[ProjectiveMatrix],
                          gen_lookup: dict[ProjectiveMatrix, int]
                          ) -> tuple[ProjectiveMatrix, int]:
    """Image of the directed edge (vertex, gens[gen_index]) under h:
    (g * t vertex t^-1, index of t s t^-1); raises when the conjugate
    leaves the generator set."""
    new_vertex = h.g * vertex.conjugate_by(h.t_mat)
    new_index = gen_lookup.get(gens[gen_index].conjugate_by(h.t_mat))
    if new_index is None:
        raise ConstructionError(
            "torus conjugation left the generator set (mis-ordered or broken S)")
    return new_vertex, new_index


def canonical_flags(graph) -> np.ndarray:
    """(|E|, 2) int32: row e is the canonical flag (v, i) of edge e, the
    flag numbered v * degree + i before its partner adj[v, i] * degree +
    inv_gen[i], found over all |V| x degree flags at once from adj and
    inv_gen; eid numbers these flags in row-major order."""
    d = graph.degree
    flat = np.arange(graph.n_vertices * d)
    partner = (graph.adj.astype(np.int64) * d + graph.inv_gen).reshape(-1)
    return np.stack(np.divmod(flat[flat < partner], d), axis=1).astype(np.int32)


def reference_export_edges(graph) -> str:
    """graph.edges written one f-string per edge: the reference for
    CayleyGraph.export_edges."""
    v, i = canonical_flags(graph).T
    lines = [f"{graph.n_vertices} {graph.n_edges} {graph.degree}"]
    lines += [f"{a} {b} {c}" for a, b, c in
              zip(v.tolist(), graph.adj[v, i].tolist(), i.tolist())]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> tuple[int, int, int, list[tuple[int, int, int]]]:
    """Parse the text export: header "|V| |E| degree", then one
    "u v gen_index" line per edge."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n, m, deg = (int(tok) for tok in lines[0].split())
    edges = [tuple(int(tok) for tok in ln.split()) for ln in lines[1:]]
    if len(edges) != m:
        raise ValueError(f"edge list header says {m} edges, found {len(edges)}")
    return n, m, deg, edges  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# The object closure and its symmetry permutations
# ---------------------------------------------------------------------------

@dataclass
class ReferenceGraph:
    gens: list
    vertices: list
    vindex: dict
    adj: np.ndarray
    inv_gen: list[int]
    eid: np.ndarray
    edge_canonical: list[tuple[int, int]]
    bipartite: bool
    color: np.ndarray | None


def reference_closure(gens: Sequence, identity) -> ReferenceGraph:
    """Sequential BFS closure, one element and one dict lookup at a
    time; edge ids and the 2-coloring as first built."""
    gens = list(gens)
    lookup = {s: i for i, s in enumerate(gens)}
    inv_gen = [lookup[s.inverse()] for s in gens]
    t = len(gens)
    vindex = {identity: 0}
    vertices = [identity]
    adj_rows = []
    head = 0
    while head < len(vertices):
        g = vertices[head]
        row = []
        for s in gens:
            h = g * s
            j = vindex.get(h)
            if j is None:
                j = len(vertices)
                vindex[h] = j
                vertices.append(h)
            row.append(j)
        adj_rows.append(row)
        head += 1
    n = len(vertices)
    adj = np.array(adj_rows, dtype=np.int32)

    eid = np.full((n, t), -1, dtype=np.int32)
    edge_canonical = []
    for v in range(n):
        for i in range(t):
            if eid[v, i] >= 0:
                continue
            w = int(adj[v, i])
            j = inv_gen[i]
            e = len(edge_canonical)
            edge_canonical.append(min((v, i), (w, j)))
            eid[v, i] = e
            eid[w, j] = e

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
    return ReferenceGraph(gens, vertices, vindex, adj, inv_gen, eid, edge_canonical,
                          bipartite, color if bipartite else None)


def reference_edge_permutation(ref: ReferenceGraph, vertex_map: Sequence[int],
                               gen_perm: Sequence[int]) -> np.ndarray:
    perm = np.empty(len(ref.edge_canonical), dtype=np.int32)
    for e, (v, i) in enumerate(ref.edge_canonical):
        perm[e] = ref.eid[vertex_map[v], gen_perm[i]]
    assert len(np.unique(perm)) == len(perm)
    return perm


def left_translation_vertex_map(ref: ReferenceGraph, g) -> np.ndarray:
    """Vertex permutation v -> g * v (left multiplication)."""
    return np.array([ref.vindex[g * elem] for elem in ref.vertices], dtype=np.int64)


def sdp_vertex_map(ref: ReferenceGraph, h: SdpElement) -> np.ndarray:
    """Vertex map v -> h.g * (t v t^-1) of a semi-direct product element."""
    t_inv = h.t_mat.inverse()
    return np.array([ref.vindex[h.g * (h.t_mat * elem * t_inv)] for elem in ref.vertices],
                    dtype=np.int64)


def sdp_gen_perm(ref: ReferenceGraph, h: SdpElement) -> list[int]:
    """Permutation of generator indices s -> t s t^-1."""
    lookup = {s: i for i, s in enumerate(ref.gens)}
    return [lookup[s.conjugate_by(h.t_mat)] for s in ref.gens]


def reference_symmetry_maps(ref: ReferenceGraph, t0: ProjectiveMatrix
                            ) -> dict[str, tuple[np.ndarray, list[int]]]:
    """The left translations by S and the torus generator t0, as star
    maps (vertex map, generator permutation) of the object graph."""
    ident = list(range(len(ref.gens)))
    maps = {f"left_s{i}": (left_translation_vertex_map(ref, s), ident)
            for i, s in enumerate(ref.gens)}
    h_t0 = SdpElement(ProjectiveMatrix.identity(t0.field), t0)
    maps["torus_t0"] = (sdp_vertex_map(ref, h_t0), sdp_gen_perm(ref, h_t0))
    return maps


def flag_map_keeps_edges(ref: ReferenceGraph, vertex_map: Sequence[int],
                         gen_perm: Sequence[int]) -> bool:
    """Whether the flag map (v, i) -> (vertex_map[v], gen_perm[i]) sends
    the two flags of every edge {v, v s_i}, (v, i) and (v s_i, j) with
    s_j = s_i^-1, onto the two flags of one edge, on the group elements
    of the object graph."""
    gen_index = {s: i for i, s in enumerate(ref.gens)}
    for v, g in enumerate(ref.vertices):
        for i, s in enumerate(ref.gens):
            w, j = ref.vindex[g * s], gen_index[s.inverse()]
            a, b = ref.vertices[vertex_map[v]], ref.vertices[vertex_map[w]]
            image = ref.gens[gen_perm[i]]
            if b != a * image or ref.gens[gen_perm[j]] != image.inverse():
                return False
    return True


# ---------------------------------------------------------------------------
# Bridges between keys and objects
# ---------------------------------------------------------------------------

def object_vertices(graph: CayleyGraph) -> tuple[list, dict]:
    """The vertices of a PGL graph as ProjectiveMatrix objects in id
    order, and their ids."""
    vertices = [decode(graph.group, k) for k in graph.keys.tolist()]
    return vertices, {g: v for v, g in enumerate(vertices)}


def sdp_maps(graph: CayleyGraph, h: SdpElement) -> tuple[np.ndarray, np.ndarray]:
    """Vertex map v -> g t v t^-1 and generator permutation s -> t s t^-1
    of h = (g, t) on a keyed graph, through keyed arithmetic."""
    group = graph.group
    g, t = matrix_key(h.g), matrix_key(h.t_mat)
    t_inv = group.inverse(t)

    def conj(keys):
        return group.mul(group.mul(t, keys), t_inv)

    gen_perm = KeyIndex(graph.gens).find(conj(graph.gens))
    assert (gen_perm >= 0).all()
    return graph.vertex_ids(group.mul(g, conj(graph.keys))), gen_perm


def left_translation_maps(graph: CayleyGraph) -> np.ndarray:
    """Row i is the vertex permutation v -> s_i * v."""
    return graph.vertex_ids(graph.group.mul(graph.gens[:, None], graph.keys[None, :]))


def edge_permutation(graph: CayleyGraph, vertex_map: Sequence[int],
                     gen_perm: Sequence[int]) -> np.ndarray:
    """The edge map induced by a star map, as int32: edge e with canonical
    form (v, i) goes to eid[vertex_map[v], gen_perm[i]].  A bijection when
    (vertex_map, gen_perm) is a star map; otherwise perhaps not."""
    v, i = canonical_flags(graph).T
    return graph.eid[np.asarray(vertex_map)[v], np.asarray(gen_perm)[i]]


def sdp_edge_permutation(graph: CayleyGraph, h: SdpElement) -> np.ndarray:
    return edge_permutation(graph, *sdp_maps(graph, h))


def verify_vertex_transitive(graph: CayleyGraph) -> bool:
    """Left translations act transitively on vertices (orbit of vertex 0
    under v -> s * v covers everything)."""
    return point_orbit(left_translation_maps(graph), graph.n_vertices) == graph.n_vertices
