from dataclasses import replace
from math import gcd
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycodes import graphs
from cayleycodes.cyclic import CyclicCode, dual_basis_rows
from cayleycodes.errors import ConstructionError
from cayleycodes.graphs import (KeyIndex, edge_orbit, generate_group, graph_from_generators,
                                symmetry_edge_permutations, word_orbit)
from cayleycodes.tanner import row_orbit

from field_reference import decode
from group_reference import (AddGroupElement, SdpElement, ZnGroup, canonical_flags,
                             edge_permutation, flag_map_keeps_edges, left_translation_maps,
                             object_vertices, parse_edge_list, reference_closure,
                             reference_edge_permutation,
                             reference_export_edges, sdp_edge_permutation,
                             verify_vertex_transitive)
from orbit_reference import (schreier_certificate, star_map_failure,
                             word_orbit as reference_word_orbit)


def zn_graph(n, steps):
    """Cayley graph of Z_n with the given generator steps (must be
    closed under negation)."""
    return generate_group(ZnGroup(n), steps, cap=n + 1)


def test_cycle_graph():
    g = zn_graph(8, [1, 7])
    assert g.n_vertices == 8 and g.n_edges == 8 and g.degree == 2
    assert g.bipartite
    # 501 BFS levels: the 2-coloring is the level parity, past any int8 count
    g = zn_graph(1000, [1, 999])
    assert g.bipartite and (g.color == g.keys % 2).all()
    assert not zn_graph(999, [1, 998]).bipartite


def test_complete_graph_k4():
    g = zn_graph(4, [1, 2, 3])
    assert g.n_vertices == 4 and g.n_edges == 6
    assert not g.bipartite


def test_involution_generator_pairing():
    g = zn_graph(8, [1, 7, 4])
    # 4 is an involution: its directed edges pair with themselves
    assert g.n_edges == 12
    assert 2 * g.n_edges == g.n_vertices * g.degree
    for v in range(8):
        i = g.gens.tolist().index(4)
        w = int(g.adj[v, i])
        assert g.eid[v, i] == g.eid[w, i]


def test_generator_validation():
    z8 = ZnGroup(8)
    with pytest.raises(ConstructionError):
        generate_group(z8, [1], cap=10)  # no inverse
    with pytest.raises(ConstructionError):
        generate_group(z8, [1, 7, 0], cap=10)  # identity would create loops
    with pytest.raises(ConstructionError):
        generate_group(z8, [1, 7], cap=4)  # cap exceeded
    with pytest.raises(ConstructionError):
        generate_group(z8, [1, 7, 1], cap=10)  # repeated generator


def test_vertex_ids_reject_non_vertices():
    g = zn_graph(8, [2, 6])  # the subgroup {0, 2, 4, 6}
    assert g.vertex_ids([4, 0]).tolist() == [3, 0]  # BFS order 0, 2, 6, 4
    with pytest.raises(ConstructionError, match="not vertices"):
        g.vertex_ids([4, 1])


def test_edge_ids_consistent():
    g = zn_graph(12, [1, 11, 5, 7])
    for v in range(g.n_vertices):
        for i in range(g.degree):
            w = int(g.adj[v, i])
            assert g.eid[v, i] == g.eid[w, g.inv_gen[i]]
    # stars enumerate each vertex's incident edges in generator order
    star = g.eid[3].tolist()
    assert len(star) == 4


def test_export_parse_round_trip():
    g = zn_graph(6, [1, 5, 3])
    text = g.export_edges().decode("ascii")
    n, m, deg, edges = parse_edge_list(text)
    assert (n, m, deg) == (6, 9, 3)
    assert len(edges) == 9
    recovered = {(u, v) for u, v, _ in edges}
    for u, v, i in edges:
        assert int(g.adj[u, i]) == v


@pytest.mark.parametrize("n,steps", [(2, [1]), (6, [1, 5, 3]), (12, [1, 11, 5, 7]),
                                     (1000, [1, 999, 10, 990])])
def test_export_edges_matches_the_reference_writer_on_toys(n, steps):
    """The digit writer against one f-string per edge: an involution, and
    vertex and edge ids across the digit counts up to 4."""
    g = zn_graph(n, steps)
    assert g.export_edges() == reference_export_edges(g).encode()


@pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
def test_export_edges_hands_its_blocks_to_a_sink(monkeypatch, chunk):
    """The edges of _CHUNK // degree vertices (at least one) at a time,
    handed to a sink block by block, are the bytes returned without
    one, those of the reference writer."""
    g = zn_graph(1000, [1, 999, 10, 990])
    monkeypatch.setattr(graphs, "_CHUNK", chunk)
    blocks = []
    assert g.export_edges(blocks.append) == b""
    assert len(blocks) > 1000 // max(1, chunk // 4)
    assert b"".join(blocks) == g.export_edges() == reference_export_edges(g).encode()


def test_export_edges_matches_the_reference_writer_on_q19(q19_psl_graph, q19_pgl_graph):
    for g in (q19_psl_graph, q19_pgl_graph):
        assert g.export_edges() == reference_export_edges(g).encode()


class SelfInverseZn(ZnGroup):
    """Z_n that calls every element its own inverse: a permutation of
    any generator set, the true inverse only of the involutions."""

    def inverse(self, x):
        return np.asarray(x, dtype=np.int64) % self.n


class OneWrongProductZn(ZnGroup):
    """Z_n with one wrong product: key * step is alt."""

    def __init__(self, n, key, step, alt):
        super().__init__(n)
        self.key, self.step, self.alt = key, step, alt

    def mul(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64))
        return np.where((x == self.key) & (y == self.step), self.alt, super().mul(x, y))


@pytest.mark.parametrize("chunk", [1, 7, 40, 1 << 14])
def test_handshake_fails_on_a_wrong_inverse(monkeypatch, chunk):
    """On Z_12 with S = [6, 1, 11], a self-inverse that is wrong on 1 and
    11 pairs the flag (v, 1) with (v + 1, 1), whose partner is (v + 2, 1):
    every vertex has a bad flag, the first of them in the first block."""
    monkeypatch.setattr(graphs, "_CHUNK", chunk)
    with pytest.raises(AssertionError, match="handshake failed"):
        generate_group(SelfInverseZn(12), [6, 1, 11], cap=13)
    assert generate_group(ZnGroup(12), [6, 1, 11], cap=13).n_edges == 18


def test_handshake_fails_in_the_last_block(monkeypatch):
    """A wrong inverse in a group breaks the handshake at every vertex (the
    graph is vertex transitive), so a bad flag in the last block alone
    needs a wrong product.  On Z_40 with S = [1, 39] the BFS gives the
    keys k and 40 - k the ids 2k - 1 and 2k (k < 20), and the key 20 the
    last id, 39.  Make 20 * 1 the key 0, already a vertex: only the flags
    at ids 38 (key 21) and 39 (key 20) break the handshake, and with
    _CHUNK = 4 they are the last block of two vertices, after 19 blocks
    that pair up."""
    good = generate_group(ZnGroup(40), [1, 39], cap=41)
    toy = OneWrongProductZn(40, 20, 1, 0)
    adj = good.vertex_ids(toy.mul(good.keys[:, None], good.gens))
    partner = (adj * 2 + good.inv_gen).reshape(-1)
    assert np.flatnonzero(partner[partner] != np.arange(80)).tolist() == [77, 78]
    monkeypatch.setattr(graphs, "_CHUNK", 4)
    with pytest.raises(AssertionError, match="handshake failed"):
        generate_group(toy, [1, 39], cap=41)


@pytest.mark.parametrize("chunk", [1, 7, 40, 1 << 14])
def test_closure_and_export_do_not_depend_on_the_chunk(monkeypatch, chunk, q19_psl_gens,
                                                       q19_psl_graph):
    """adj, eid, the 2-coloring and the graph.edges bytes, on toys (an
    involution, ids past 4 digits, and the odd cycle C_999, whose one
    improper edge joins the last two vertices) and q = 19 PSL, are those
    built at the default _CHUNK; eid numbers the canonical flags 0, 1,
    ... in row-major order and gives each partner the same number."""
    toys = [(2, [1]), (8, [1, 7, 4]), (12, [1, 11, 5, 7]), (1000, [1, 999, 10, 990]),
            (999, [1, 998])]
    want = [zn_graph(n, steps) for n, steps in toys] + [q19_psl_graph]
    monkeypatch.setattr(graphs, "_CHUNK", chunk)
    got = [zn_graph(n, steps) for n, steps in toys] + [graph_from_generators(q19_psl_gens)]
    for g, w in zip(got, want):
        assert np.array_equal(g.adj, w.adj) and np.array_equal(g.eid, w.eid)
        assert g.adj.dtype == g.eid.dtype == np.int32 and g.n_edges == w.n_edges
        assert g.bipartite is w.bipartite and (g.color is None) == (w.color is None)
        v, i = canonical_flags(g).T
        assert g.eid[v, i].tolist() == list(range(g.n_edges))
        assert np.array_equal(g.eid[g.adj[v, i], g.inv_gen[i]], g.eid[v, i])
        assert g.export_edges() == w.export_edges() == reference_export_edges(g).encode()


def test_q19_group_orders(q19_psl_graph, q19_pgl_graph):
    assert q19_psl_graph.n_vertices == 3420
    assert q19_psl_graph.n_edges == 34200
    assert q19_psl_graph.degree == 20
    assert not q19_psl_graph.bipartite
    assert q19_pgl_graph.n_vertices == 6840
    assert q19_pgl_graph.n_edges == 68400
    assert q19_pgl_graph.bipartite


def test_q5_e2_group_order():
    from cayleycodes.quaternion import build_generators, choose_ideal
    gens = build_generators(choose_ideal(5, 2, "psl"))
    graph = graph_from_generators(gens)
    assert graph.n_vertices == 7800
    assert graph.degree == 6
    assert 2 * graph.n_edges == 7800 * 6


def test_vertex_transitivity(q19_psl_graph):
    assert verify_vertex_transitive(q19_psl_graph)


def test_edge_permutation_bijection_and_composition(q19_psl_graph, q19_psl_gens):
    import random
    gens = q19_psl_gens
    graph = q19_psl_graph
    rng = random.Random(21)
    vertices, _ = object_vertices(graph)
    h1 = SdpElement(rng.choice(vertices), decode(gens.group, rng.choice(gens.torus)))
    h2 = SdpElement(rng.choice(vertices), decode(gens.group, rng.choice(gens.torus)))
    p1 = sdp_edge_permutation(graph, h1)
    p2 = sdp_edge_permutation(graph, h2)
    p12 = sdp_edge_permutation(graph, h1 * h2)
    assert all(np.bincount(p, minlength=graph.n_edges).max() == 1 for p in (p1, p2, p12))
    # e^(h1 h2) == (e^h2)^h1
    assert np.array_equal(p12, p1[p2])


def test_edge_transitive_q19(q19_psl_graph, q19_maps):
    orbit = edge_orbit(q19_psl_graph, q19_maps)
    assert orbit.transitive and orbit.size == 34200
    assert orbit.bad is None and orbit.missed is None and orbit.vertices == 3420


def test_toy_edge_orbit_under_translations_only():
    # the cycle C_8 is edge transitive under rotations alone
    g = zn_graph(8, [1, 7])
    ident_gen_perm = list(range(g.degree))
    maps = {f"left_{i}": (vm, ident_gen_perm) for i, vm in enumerate(left_translation_maps(g))}
    orbit = edge_orbit(g, maps)
    assert orbit.transitive and orbit.size == g.n_edges


def draw_star_map(data, graph, n, steps):
    """A map (u, tau) of the toy Z_n graph: a translation or a
    multiplication by a unit that fixes S, either of them sometimes with
    two entries of u or of tau swapped, or two random permutations."""
    kind = data.draw(st.sampled_from(["translation", "multiplier", "random"]))
    if kind == "random":
        return (np.array(data.draw(st.permutations(range(graph.n_vertices)))),
                np.array(data.draw(st.permutations(range(graph.degree)))))
    if kind == "translation":
        x = data.draw(st.sampled_from(graph.keys.tolist()))
        u, tau = graph.vertex_ids((graph.keys + x) % n), np.arange(graph.degree)
    else:
        m = data.draw(st.sampled_from([m for m in range(1, n) if gcd(m, n) == 1
                                       and {m * s % n for s in steps} == set(steps)]))
        u = graph.vertex_ids(m * graph.keys % n)
        tau = KeyIndex(graph.gens).find(m * graph.gens % n)
    if data.draw(st.booleans()):
        part = data.draw(st.sampled_from([u, tau]))
        a, b = data.draw(st.lists(st.integers(0, len(part) - 1), min_size=2, max_size=2))
        part[[a, b]] = part[[b, a]]
    return u, tau


@given(st.integers(min_value=3, max_value=16), st.data())
@settings(deadline=None, max_examples=200)
def test_star_map_check_is_the_edge_condition(n, data):
    """The proof in edge_orbit's docstring, on toy Z_n graphs, with
    (u, tau) drawn by draw_star_map.  The check on u(adj[v, i]) alone
    passes exactly when the flag map (v, i) -> (u(v), tau(i)) sends the
    two flags of every edge {v, v s_i} onto the two flags of one edge,
    checked on the group elements; and then the induced edge map is a
    bijection, the object reference's.  Run a block of _CHUNK // degree
    vertices (at least one) at a time, it names the first failing flag
    that the check on all flags at once names."""
    half = data.draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=4))
    steps = data.draw(st.permutations(sorted({s % n for h in half for s in (h, -h)})))
    ref = reference_closure([AddGroupElement(n, s) for s in steps], AddGroupElement(n, 0))
    graph = generate_group(ZnGroup(n), steps, cap=len(ref.vertices))
    u, tau = draw_star_map(data, graph, n, steps)
    with mock.patch.object(graphs, "_CHUNK", data.draw(st.sampled_from([1, 5, 1 << 14]))):
        orbit = edge_orbit(graph, {"m": (u, tau)})
    keeps = flag_map_keeps_edges(ref, u.tolist(), tau.tolist())
    assert (orbit.bad is None) == keeps
    assert orbit.bad == star_map_failure(graph, {"m": (u, tau)})
    if keeps:
        perm = edge_permutation(graph, u, tau)
        assert np.bincount(perm, minlength=graph.n_edges).max() == 1
        assert np.array_equal(perm, reference_edge_permutation(ref, u, tau))


def test_star_map_check_names_a_failure_in_the_last_block(monkeypatch):
    """On the cycle C_16 (S = [1, 15], so vertex ids 12 to 15 are the
    keys 10, 7, 9 and 8), the rotation by 1 with its images of the last
    two ids swapped fails only at flags of ids 12 to 15: with _CHUNK = 8
    the check runs 4 vertices at a time, and the first of them, in the
    last block, is named as the check on all flags at once names it."""
    graph = zn_graph(16, [1, 15])
    u = graph.vertex_ids((graph.keys + 1) % 16)
    u[[14, 15]] = u[[15, 14]]
    maps = {"rotation": (u, np.arange(2))}
    monkeypatch.setattr(graphs, "_CHUNK", 8)
    bad = edge_orbit(graph, maps).bad
    assert bad == star_map_failure(graph, maps) == ("rotation", 12, 1)


def assert_certificate_is_the_reference(graph, maps, w0):
    """edge_orbit's certificate, formed once per pair of path classes,
    against the per-vertex Schreier construction: the same set of
    Schreier generators (each once), orbit of vertex 0, first missed
    vertex, Gamma.0 and orbit size, and row_orbit has the word set of
    the reference orbit of w0."""
    orbit, ref = edge_orbit(graph, maps), schreier_certificate(graph, maps)
    schreier = [tuple(s) for s in orbit.schreier.tolist()]
    assert orbit.schreier.shape[1] == graph.degree and orbit.schreier.dtype == np.int32
    assert len(schreier) == len(ref.schreier) and set(schreier) == ref.schreier
    assert (orbit.vertices, orbit.missed, orbit.size) == (ref.vertices, ref.missed, ref.size)
    assert {w.bit_length() - 1 for w in word_orbit(1, orbit.schreier)} == ref.gamma_0
    words = row_orbit(SimpleNamespace(dual_rows=[w0]), orbit)
    assert words[0] == w0 and len(words) == len(set(words))
    assert set(words) == reference_word_orbit(w0, ref.schreier)


@given(st.integers(min_value=3, max_value=16), st.data())
@settings(deadline=None, max_examples=200)
def test_certificate_is_the_per_vertex_schreier_construction(n, data):
    """On toy Z_n graphs, under one to three maps drawn by
    draw_star_map; a set of maps with one that is no star map gets no
    certificate."""
    half = data.draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=4))
    steps = data.draw(st.permutations(sorted({s % n for h in half for s in (h, -h)})))
    graph = zn_graph(n, steps)
    maps = {f"m{k}": draw_star_map(data, graph, n, steps)
            for k in range(data.draw(st.integers(1, 3)))}
    if edge_orbit(graph, maps).bad is None:
        w0 = data.draw(st.integers(1, (1 << graph.degree) - 1))
        assert_certificate_is_the_reference(graph, maps, w0)


@pytest.mark.parametrize("name", ["q19_psl", "q19_pgl", "q5e2_psl"])
def test_certificate_is_the_per_vertex_schreier_construction_on_instances(name, request):
    """The same on the symmetry star maps of the fixtures, with w0 the
    first dual word of [20,16] (q = 19) and [6,4] (q = 5, e = 2)."""
    graph = request.getfixturevalue(f"{name}_graph")
    maps = symmetry_edge_permutations(graph, request.getfixturevalue(f"{name}_gens"))
    inner = CyclicCode(20, 0x11) if graph.degree == 20 else CyclicCode(6, 0b111)
    assert_certificate_is_the_reference(graph, maps, dual_basis_rows(inner)[0])


def test_symmetry_perms_count(q19_maps):
    # the translation by s0 and the torus generator generate the group
    assert list(q19_maps) == ["left_s0", "torus_t0"]


def test_torus_that_is_not_one_cycle_is_rejected(q19_psl_graph, q19_psl_gens):
    """With t0 patched to the identity, conjugation fixes every s_i:
    the torus conjugates of L_s0 are L_s0 alone, so the two
    permutations would not generate the group, and the builder names
    the cycle instead of reporting a smaller orbit."""
    broken = replace(q19_psl_gens, t0=q19_psl_gens.group.identity)
    with pytest.raises(ConstructionError, match="single 20-cycle.*length 1$"):
        symmetry_edge_permutations(q19_psl_graph, broken)


def test_broken_generator_set_is_rejected(q19_psl_gens):
    """Dropping one element breaks S = S^-1 and the expected degree;
    the graph builder refuses instead of silently accepting."""
    gens = q19_psl_gens
    with pytest.raises(ConstructionError):
        generate_group(gens.group, gens.elements[:-1], cap=10000)
