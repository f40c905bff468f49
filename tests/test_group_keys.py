"""The keyed group layer against the object reference: field tables
against FieldElem, PglGroup against ProjectiveMatrix, and the Cayley
graphs and symmetry permutations, from the object generator set,
against the sequential object BFS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycodes import cli
from cayleycodes.fields import FieldTables
from cayleycodes.cyclic import CyclicCode
from cayleycodes.graphs import (edge_orbit, generate_group, graph_from_generators,
                                symmetry_edge_permutations)
from cayleycodes.projective import KEY_ORDER_LIMIT, PglGroup, require_key_fits
from cayleycodes.quaternion import build_generators, choose_ideal
from cayleycodes.tanner import build_parity_check, row_orbit

from field_reference import (ProjectiveMatrix, matrix_key, reference_field,
                             reference_generators)
from group_reference import (AddGroupElement, ZnGroup, canonical_flags, edge_permutation,
                             left_translation_maps, left_translation_vertex_map,
                             reference_closure, reference_edge_permutation,
                             reference_symmetry_maps)
from orbit_reference import point_orbit, row_orbit as reference_row_orbit

GROUPS = {"F_19": PglGroup(FieldTables(19)), "F_25": PglGroup(FieldTables(5, 2)),
          "F_49": PglGroup(FieldTables(7, 2))}
FIELDS = {name: reference_field(group.tables) for name, group in GROUPS.items()}

field_names = st.sampled_from(sorted(FIELDS))


@settings(max_examples=30, deadline=None)
@given(field_names, st.data())
def test_field_tables_match_field_elements(name, data):
    field = FIELDS[name]
    tables = GROUPS[name].tables
    elems = st.integers(0, field.order - 1)
    pairs = data.draw(st.lists(st.tuples(elems, elems), min_size=1, max_size=40))
    x = np.array([a for a, _ in pairs])
    y = np.array([b for _, b in pairs])
    fx = [field.from_int(a) for a, _ in pairs]
    fy = [field.from_int(b) for _, b in pairs]
    assert tables.mul(x, y).tolist() == [(a * b).encode() for a, b in zip(fx, fy)]
    assert tables.add(x, y).tolist() == [(a + b).encode() for a, b in zip(fx, fy)]
    assert tables.neg(x).tolist() == [(-a).encode() for a in fx]
    nz = x != 0
    assert tables.inv(x[nz]).tolist() == [a.inverse().encode() for a in fx if not a.is_zero()]


def test_field_tables_reject_zero_inverse():
    with pytest.raises(ZeroDivisionError):
        FieldTables(7).inv(np.array([3, 0]))


@settings(max_examples=30, deadline=None)
@given(field_names, st.data())
def test_pgl_keys_match_projective_matrices(name, data):
    """Products, inverses and the canonical form of arbitrary scalar
    multiples agree with ProjectiveMatrix, key for key."""
    field, group = FIELDS[name], GROUPS[name]
    elems = st.integers(0, field.order - 1)
    quads = data.draw(st.lists(st.tuples(elems, elems, elems, elems), max_size=24))
    xs = [ProjectiveMatrix.identity(field)]
    for quad in quads:
        a, b, c, d = (field.from_int(x) for x in quad)
        if not (a * d - b * c).is_zero():
            xs.append(ProjectiveMatrix.make(field, (a, b, c, d)))
    ys = xs[::-1]
    kx = np.array([matrix_key(m) for m in xs])
    ky = np.array([matrix_key(m) for m in ys])
    assert group.mul(kx, ky).tolist() == [matrix_key(a * b) for a, b in zip(xs, ys)]
    assert group.inverse(kx).tolist() == [matrix_key(a.inverse()) for a in xs]
    assert group.in_psl(kx).tolist() == [m.is_in_psl() for m in xs]
    # rescaling by a nonzero scalar does not change the key
    scale = data.draw(st.integers(1, field.order - 1))
    entries = np.array([[e.encode() for e in m.entries()] for m in xs]).T
    scaled = [group.tables.mul(column, scale) for column in entries]
    assert group.canonical_key(*scaled).tolist() == kx.tolist()
    assert group.mul(kx[:, None], ky[None, :]).shape == (len(xs), len(ys))
    assert group.identity == matrix_key(ProjectiveMatrix.identity(field))


def test_key_guard_names_the_limit():
    require_key_fits(KEY_ORDER_LIMIT - 1)
    assert (KEY_ORDER_LIMIT - 1) ** 4 < 2**63 <= KEY_ORDER_LIMIT ** 4
    with pytest.raises(ValueError, match=str(KEY_ORDER_LIMIT)):
        require_key_fits(KEY_ORDER_LIMIT)
    with pytest.raises(ValueError, match=str(KEY_ORDER_LIMIT)):
        require_key_fits(10**6)


def test_cli_refuses_oversized_field(capsys):
    assert cli.main(["graph", "--q", "55117"]) == 2
    assert str(KEY_ORDER_LIMIT) in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Graphs and permutations against the object reference
# ---------------------------------------------------------------------------

INSTANCES = {"q19_psl": (19, 1, "psl"), "q19_pgl": (19, 1, "pgl"), "q5e2_psl": (5, 2, "psl")}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def keyed_and_reference(request):
    q, e, variant = INSTANCES[request.param]
    params = choose_ideal(q, e, variant)
    gens = build_generators(params)
    graph = graph_from_generators(gens)
    obj = reference_generators(q, e, params.residue_poly, params.delta,
                               params.tables.digits(params.ybar))
    ref = reference_closure(obj.elements, ProjectiveMatrix.identity(obj.field))
    return gens, graph, ref, obj


def _assert_same_graph(graph, ref):
    assert graph.adj.dtype == ref.adj.dtype and np.array_equal(graph.adj, ref.adj)
    assert graph.eid.dtype == ref.eid.dtype and np.array_equal(graph.eid, ref.eid)
    assert canonical_flags(graph).tolist() == [list(f) for f in ref.edge_canonical]
    assert graph.inv_gen.tolist() == ref.inv_gen
    assert graph.bipartite == ref.bipartite
    if ref.bipartite:
        assert graph.color.dtype == ref.color.dtype and np.array_equal(graph.color, ref.color)
    else:
        assert graph.color is None


def test_closure_matches_object_bfs(keyed_and_reference):
    gens, graph, ref, _ = keyed_and_reference
    _assert_same_graph(graph, ref)
    assert graph.keys.tolist() == [matrix_key(g) for g in ref.vertices]


@pytest.fixture(scope="module")
def reference_maps(keyed_and_reference):
    """All q + 2 symmetry star maps of the object graph: the left
    translations by every s in S and the torus generator."""
    _, _, ref, obj = keyed_and_reference
    return reference_symmetry_maps(ref, obj.t0_embedded)


def test_symmetry_permutations_match_object_reference(keyed_and_reference, reference_maps):
    """The two star maps, taken from the keyed group, are the object
    ones as int32 arrays, and induce the object edge permutations."""
    gens, graph, ref, _ = keyed_and_reference
    maps = symmetry_edge_permutations(graph, gens)
    assert list(maps) == ["left_s0", "torus_t0"]
    for name, (u, tau) in maps.items():
        ref_u, ref_tau = reference_maps[name]
        assert u.dtype == tau.dtype == np.int32, name
        assert u.tolist() == ref_u.tolist() and tau.tolist() == list(ref_tau), name
        assert np.array_equal(edge_permutation(graph, u, tau),
                              reference_edge_permutation(ref, ref_u, ref_tau)), name


# by degree: [20,16] with generator (x+1)^4, [6,4] with x^2+x+1
INNER_CODES = {20: CyclicCode(20, 0x11), 6: CyclicCode(6, 0b111)}


def test_two_generators_give_the_orbits_of_all(keyed_and_reference, reference_maps):
    """The orbits that build reports, under left_s0 and torus_t0 alone,
    are those under all |S| left translations and the torus: the same
    set of rows of H in the orbit of row 0 ([20,16] at q = 19, [6,4] at
    q = 5, e = 2) and the same number of edges in the orbit of edge 0,
    by the certificate and by the BFS oracles over rows and edges."""
    gens, graph, ref, _ = keyed_and_reference
    two_maps = symmetry_edge_permutations(graph, gens)
    two = [edge_permutation(graph, *m) for m in two_maps.values()]
    every = [reference_edge_permutation(ref, *m) for m in reference_maps.values()]
    assert len(every) == graph.degree + 1
    inst = build_parity_check(graph, INNER_CODES[graph.degree])
    rows = [{tuple(r) for r in reference_row_orbit(inst, perms).tolist()}
            for perms in (two, every)]
    assert rows[0] == rows[1]
    edges = point_orbit(every, graph.n_edges)
    assert point_orbit(two, graph.n_edges) == edges
    for maps in (two_maps, reference_maps):
        orbit = edge_orbit(graph, maps)
        assert orbit.size == edges == graph.n_edges
        assert orbit.vertices * len(row_orbit(inst, orbit)) == len(rows[0])


@st.composite
def zn_generators(draw):
    n = draw(st.integers(3, 40))
    half = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=4))
    steps = sorted({s % n for h in half for s in (h, -h)})
    return n, draw(st.permutations(steps))


@settings(max_examples=40, deadline=None)
@given(zn_generators())
def test_toy_groups_match_object_reference(case):
    """Random Z_n generator sets, cap = |subgroup|: the keyed closure,
    its edges and the left-translation edge permutations equal the
    object construction."""
    n, steps = case
    ref = reference_closure([AddGroupElement(n, s) for s in steps], AddGroupElement(n, 0))
    graph = generate_group(ZnGroup(n), steps, cap=len(ref.vertices))
    _assert_same_graph(graph, ref)
    assert graph.keys.tolist() == [g.v for g in ref.vertices]
    ident = list(range(len(steps)))
    for vm, s in zip(left_translation_maps(graph), ref.gens):
        ref_vm = left_translation_vertex_map(ref, s)
        assert np.array_equal(vm, ref_vm)
        assert np.array_equal(edge_permutation(graph, vm, ident),
                              reference_edge_permutation(ref, ref_vm, ident))
