"""The ProjectiveMatrix and TorusElement references, and the action of
the semi-direct product on the edges of the keyed q = 19 graph."""

import random

import numpy as np
import pytest

from cayleycodes.errors import ConstructionError

from field_reference import (ProjectiveMatrix, decode, ext_field, find_nonsquare,
                             nonsplit_torus, prime_field, torus_element_order,
                             torus_generator)
from group_reference import (SdpElement, conj_action, proj, sdp_act_directed_edge,
                             sdp_maps)


def test_scalar_collapse():
    f5 = prime_field(5)
    assert proj(f5, (2, 0, 0, 2)) == ProjectiveMatrix.identity(f5)


def test_mul_inverse_identity():
    f19 = prime_field(19)
    rng = random.Random(2)
    ident = ProjectiveMatrix.identity(f19)
    for _ in range(50):
        while True:
            entries = [rng.randrange(19) for _ in range(4)]
            if (entries[0] * entries[3] - entries[1] * entries[2]) % 19:
                break
        m = proj(f19, entries)
        assert m * m.inverse() == ident
        assert m.inverse() * m == ident


def test_singular_rejected():
    with pytest.raises(ConstructionError):
        proj(prime_field(5), (1, 2, 2, 4))


def test_involution_example():
    # [[0, 2], [1, 0]] squares to the scalar 2I, the identity in PGL
    f5 = prime_field(5)
    m = proj(f5, (0, 2, 1, 0))
    assert m * m == ProjectiveMatrix.identity(f5)


def test_psl_membership_well_defined():
    f19 = prime_field(19)
    m = proj(f19, (1, 2, 3, 4))
    for c in range(1, 19):
        rescaled = proj(f19, tuple(f19(c) * e for e in m.entries()))
        assert rescaled == m and rescaled.is_in_psl() == m.is_in_psl()


@pytest.mark.parametrize("q", [5, 19, 23])
def test_nonsplit_torus_is_a_group(q):
    field = prime_field(q)
    torus = nonsplit_torus(field)
    assert len(torus) == q + 1
    mats = {t.matrix for t in torus}
    assert len(mats) == q + 1
    assert ProjectiveMatrix.identity(field) in mats
    assert torus[0].is_identity()  # (1 : 0) comes first
    # closure and inverses, exhaustively
    for a in torus:
        assert a.inverse().matrix in mats
        for b in torus:
            assert (a * b).matrix in mats
    # commutes with [[0, delta], [1, 0]]
    delta = find_nonsquare(field)
    alpha = proj(field, (field.zero, delta, field.one, field.zero))
    for t in torus:
        assert t.matrix * alpha == alpha * t.matrix


def test_torus_square_delta_rejected():
    with pytest.raises(ValueError):
        nonsplit_torus(prime_field(5), 4)


def test_torus_generator():
    for q in (5, 19):
        torus = nonsplit_torus(prime_field(q))
        idx, t0 = torus_generator(torus)
        assert torus_element_order(t0, q + 2) == q + 1
        # powers enumerate the torus without repetition
        seen = set()
        cur = t0
        for _ in range(q + 1):
            seen.add(cur.matrix)
            cur = cur * t0
        assert len(seen) == q + 1


def test_conj_action_basics():
    f19 = prime_field(19)
    torus = nonsplit_torus(f19)
    _, t0 = torus_generator(torus)
    g = proj(f19, (1, 2, 3, 5))
    ident = ProjectiveMatrix.identity(f19)
    assert conj_action(ident, g) == g
    assert conj_action(t0.inverse().matrix, conj_action(t0.matrix, g)) == g


def test_conj_action_embeds_base_field():
    f5 = prime_field(5)
    f25 = ext_field(5, 2)
    t = nonsplit_torus(f5)[3].matrix
    g = proj(f25, ((1, 1), (0, 1), (2, 0), (1, 0)))
    out = conj_action(t, g)
    assert out.field == f25


def _random_sdp(rng, gens, graph_vertices):
    g = rng.choice(graph_vertices)
    t = decode(gens.group, rng.choice(gens.torus))
    return SdpElement(g, t)


def _objects(gens):
    return [decode(gens.group, s) for s in gens.elements]


def test_sdp_group_axioms(q19_psl_gens, q19_psl_objects):
    gens = q19_psl_gens
    vertices, _ = q19_psl_objects
    rng = random.Random(77)
    ident = SdpElement.identity(vertices[0].field)
    for _ in range(200):
        h1 = _random_sdp(rng, gens, vertices)
        h2 = _random_sdp(rng, gens, vertices)
        h3 = _random_sdp(rng, gens, vertices)
        assert (h1 * h2) * h3 == h1 * (h2 * h3)
        assert h1.inverse() * h1 == ident
        assert h1 * h1.inverse() == ident


def test_sdp_edge_action_well_defined(q19_psl_gens, q19_psl_graph, q19_psl_objects):
    """Acting by a product equals acting twice, and both directed forms
    of an edge land on the same undirected edge."""
    gens = q19_psl_gens
    graph = q19_psl_graph
    vertices, vindex = q19_psl_objects
    elements = _objects(gens)
    lookup = {s: i for i, s in enumerate(elements)}
    rng = random.Random(5)
    for _ in range(1000):
        h1 = _random_sdp(rng, gens, vertices)
        h2 = _random_sdp(rng, gens, vertices)
        v = rng.choice(vertices)
        i = rng.randrange(graph.degree)
        # composition: e^(h1 h2) == (e^h2)^h1
        mid = sdp_act_directed_edge(h2, v, i, elements, lookup)
        twice = sdp_act_directed_edge(h1, *mid, elements, lookup)
        once = sdp_act_directed_edge(h1 * h2, v, i, elements, lookup)
        assert twice == once
        # reversed-edge consistency: (v s_i, s_i^-1) maps to the reverse
        vi = vindex[v]
        w = vertices[graph.adj[vi, i]]
        j = graph.inv_gen[i]
        img_v, img_i = sdp_act_directed_edge(h1, v, i, elements, lookup)
        img_w, img_j = sdp_act_directed_edge(h1, w, j, elements, lookup)
        img_vi = vindex[img_v]
        img_wi = vindex[img_w]
        assert graph.adj[img_vi, img_i] == img_wi
        assert graph.inv_gen[img_i] == img_j


def test_sdp_pairing_preserved_on_all_edges(q19_psl_gens, q19_psl_graph,
                                            q19_psl_objects):
    """Both directed forms of every edge map to the same undirected
    edge, exhaustively over all 68400 directed edges for a fixed h."""
    gens = q19_psl_gens
    graph = q19_psl_graph
    h = SdpElement(q19_psl_objects[0][17], decode(gens.group, gens.torus[5]))
    vmap, gperm = sdp_maps(graph, h)
    direct = graph.eid[vmap][:, gperm]             # (v, i) -> image edge id
    # entry (v, i) of the gather is direct[adj[v, i], inv_gen[i]], the
    # image of the reversed directed form
    inv = np.array(graph.inv_gen)
    reversed_form = direct[graph.adj, inv[None, :]]
    assert np.array_equal(direct, reversed_form)


def test_sdp_restriction_is_left_multiplication(q19_psl_gens, q19_psl_objects):
    gens = q19_psl_gens
    vertices, _ = q19_psl_objects
    elements = _objects(gens)
    lookup = {s: i for i, s in enumerate(elements)}
    rng = random.Random(6)
    torus_ident = ProjectiveMatrix.identity(vertices[0].field)
    for _ in range(100):
        g = rng.choice(vertices)
        h = SdpElement(g, torus_ident)
        v = rng.choice(vertices)
        i = rng.randrange(gens.degree)
        img_v, img_i = sdp_act_directed_edge(h, v, i, elements, lookup)
        assert img_v == g * v and img_i == i


def test_torus_orbit_size_of_gamma(q19_psl_gens):
    gens = q19_psl_gens
    group, torus = gens.group, gens.torus
    orbit = group.mul(group.mul(torus, gens.gamma), group.inverse(torus))
    assert len(np.unique(orbit)) == 20


def test_sdp_act_rejects_broken_generator_set(q19_psl_gens, q19_psl_objects):
    gens = q19_psl_gens
    vertices, _ = q19_psl_objects
    truncated = _objects(gens)[:-1]
    lookup = {s: i for i, s in enumerate(truncated)}
    h = SdpElement(ProjectiveMatrix.identity(vertices[0].field), decode(gens.group, gens.t0))
    # conjugating the last remaining generator lands on the dropped one
    with pytest.raises(ConstructionError):
        sdp_act_directed_edge(h, vertices[0], len(truncated) - 1,
                              truncated, lookup)
