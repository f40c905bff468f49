import random
import re
import tracemalloc
from dataclasses import replace
from unittest import mock
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cayleycodes import spectra, tanner
from cayleycodes.alist import dumps_alist, loads_alist
from cayleycodes.cyclic import CyclicCode, dual_basis_rows
from cayleycodes.errors import CheckFailure, ConstructionError
from cayleycodes.gf2 import Gf2Matrix, independent
from cayleycodes.gf2poly import divmod_, mul, x_pow_n_minus_1
from cayleycodes.graphs import KeyIndex, edge_orbit, generate_group
from cayleycodes.tanner import (StarPivots, alist_tables, build_parity_check,
                                measured_rate, row_orbit, edge_code_bounds,
                                require_packed_fits, residual_rank, run_verification,
                                star_pivots, verify_invariance, verify_single_orbit)

from alist_reference import reference_dumps_alist
from code_reference import (codeword_set_brute_force, codeword_set_from_nullspace, h_csr,
                            local_view)
from gf2_reference import (contains, csr, int_span_equal, reference_echelon,
                           reference_from_supports, rows_of)
from group_reference import ZnGroup, canonical_flags, edge_permutation, left_translation_maps
import orbit_reference as oracle
from residual_reference import odd_entries, star_residual


def zn_graph(n, steps):
    return generate_group(ZnGroup(n), steps, cap=n + 1)


def toy_maps(graph, mult=None):
    """Star maps (u, tau) of the toy symmetry generators: all left
    translations, plus multiplication by `mult` (an automorphism of
    Z_n) permuting both vertices and generator positions."""
    ident = np.arange(graph.degree)
    maps = [(vm, ident) for vm in left_translation_maps(graph)]
    if mult is not None:
        n = graph.group.n
        maps.append((graph.vertex_ids(mult * graph.keys % n),
                     KeyIndex(graph.gens).find(mult * graph.gens % n)))
    return maps


def edge_perms(graph, maps):
    """The edge maps that star maps induce, for the oracles."""
    return [edge_permutation(graph, *m) for m in maps]


def toy_perms(graph, mult=None):
    """The edge permutations of toy_maps."""
    return edge_perms(graph, toy_maps(graph, mult))


def swapped(star_map, part, a, b):
    """A copy of the star map with entries a and b of u (part 0) or of
    tau (part 1) swapped."""
    out = [np.array(x) for x in star_map]
    out[part][[a, b]] = out[part][[b, a]]
    return tuple(out)


# ---------------------------------------------------------------------------
# toy instances
# ---------------------------------------------------------------------------

def z6_even_instance():
    # Z_6 with S = {1, 5, 3}, inner = even-weight [3, 2]
    graph = zn_graph(6, [1, 5, 3])
    inner = CyclicCode(3, 0b11)
    return build_parity_check(graph, inner)


def z17_torus_instance():
    """Z_17 with S = powers of 2 (a symmetric orbit of the order-8
    multiplicative action), inner = [8, 5] cyclic code.  A genuine
    instance of the full symmetry structure at toy scale."""
    steps = [pow(2, i, 17) for i in range(8)]  # 1 2 4 8 16 15 13 9
    graph = zn_graph(17, steps)
    inner = CyclicCode(8, 0b1111)  # h = (x+1)^3, dim 5
    return build_parity_check(graph, inner)


def test_build_validates_length(q19_psl_graph):
    with pytest.raises(ConstructionError):
        build_parity_check(q19_psl_graph, CyclicCode(3, 0b11))


def test_parity_check_rows_are_the_dual_words_on_each_star(monkeypatch):
    """Row v r + j of H is dual word j on the star of vertex v, its edge
    ids sorted, in the packed H and in the streamed alist, whose two
    perspectives agree.  A basis of the dual with words of weight 4, 8
    and 4 is laid out as well, and spans the same rows."""
    inst = z17_torus_instance()
    d = inst.dual_rows
    monkeypatch.setattr(tanner, "dual_basis_rows", lambda inner: [d[0], d[0] ^ d[2], d[1]])
    mixed = build_parity_check(inst.graph, inst.inner)
    assert [bin(w).count("1") for w in mixed.dual_rows] == [4, 8, 4]
    for h in (inst, mixed):
        eid = h.graph.eid.tolist()
        want = [sorted(star[i] for i in range(h.graph.degree) if w >> i & 1)
                for star in eid for w in h.dual_rows]
        assert [h.matrix.row_support(i) for i in range(len(want))] == want
        assert loads_alist(dumps_alist(alist_tables(h)).decode()) == (h.n, len(want), want)
    assert mixed.rank == inst.rank == reference_echelon(mixed.matrix).rank


def test_build_parity_check_allocates_under_1_mb(q19_psl_graph):
    """H at q = 19 with [20,16] is 13680 rows of 5 edge ids; the build,
    numpy's allocations included (tracemalloc counts them, and unlike RSS
    repeats exactly), peaks under 1 MB, as it holds only the dual words.
    As lists of Python ints H took 3.7 MB, and as a CSR pair 0.4 MB."""
    inner = CyclicCode(20, 0b10001)
    tracemalloc.start()
    try:
        inst = build_parity_check(q19_psl_graph, inner)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert next(alist_tables(inst)).tolist() == [[34200, 13680], [2, 5]]
    assert peak < 10**6


@pytest.mark.parametrize("name", ["z6", "z20", "z17", "r0", "q19", "q19_20_12", "q19_pgl",
                                  "q5e2"])
def test_streamed_alist_is_the_reference_alist_of_h(name, request, monkeypatch, inner20):
    """The alist that alist_tables makes from the flags and the dual
    words is byte for byte the per-entry reference's alist of H's rows,
    laid out from H's definition (h_csr; on the toys they are also the
    rows of the packed H), with vertex blocks of 1, 7, 40 and 2^14
    vertices: Z_6 and Z_20 with an involutive generator, the Z_17 torus,
    an r = 0 inner code (no rows, width-0 column lines), q = 19 PSL with
    [20,16] and [20,12], q = 19 PGL and q = 5, e = 2 PSL."""
    inst = {
        "z6": lambda: build_parity_check(zn_graph(6, [1, 5, 3]), CyclicCode(3, 0b11)),
        "z20": lambda: build_parity_check(zn_graph(20, [10, 1, 19, 3, 17]),
                                          CyclicCode(5, 0b11)),
        "z17": z17_torus_instance,
        "r0": lambda: build_parity_check(zn_graph(6, [1, 5, 3]), CyclicCode(3, 1)),
        "q19": lambda: build_parity_check(request.getfixturevalue("q19_psl_graph"),
                                          CyclicCode(20, 0b10001)),
        "q19_20_12": lambda: build_parity_check(request.getfixturevalue("q19_psl_graph"),
                                                inner20),
        "q19_pgl": lambda: build_parity_check(request.getfixturevalue("q19_pgl_graph"),
                                              CyclicCode(20, 0b10001)),
        "q5e2": lambda: build_parity_check(request.getfixturevalue("q5e2_psl_graph"),
                                           CyclicCode(6, 0b111)),
    }[name]()
    rows = rows_of(*h_csr(inst))
    if inst.n < 100:
        assert [inst.matrix.row_support(i) for i in range(inst.matrix.nrows)] == rows
    want = reference_dumps_alist(rows, inst.n).encode()
    for block in (1, 7, 40, 1 << 14):
        monkeypatch.setattr(tanner, "_BLOCK", block)
        assert dumps_alist(alist_tables(inst)) == want


def test_full_space_inner_gives_no_constraints():
    graph = zn_graph(6, [1, 5, 3])
    inst = build_parity_check(graph, CyclicCode(3, 1))
    assert inst.matrix.nrows == 0
    assert inst.rank == 0
    assert measured_rate(inst) == 1


def test_even_weight_inner_rank_deficiency():
    """The even-weight inner code gives one all-ones star row per
    vertex, i.e. the GF(2) vertex-edge incidence matrix.  Every edge
    has two endpoints, so the rows of a connected graph sum to zero and
    the rank is exactly |V| - 1; the counting bound rate >= 1 - 2/deg
    holds with room to spare."""
    bip = z6_even_instance()
    assert bip.rank == bip.graph.n_vertices - 1
    assert measured_rate(bip) >= 1 - Fraction(2, bip.graph.degree)
    k5 = build_parity_check(zn_graph(5, [1, 2, 3, 4]), CyclicCode(4, 0b11))
    assert not k5.graph.bipartite
    assert k5.rank == 4
    assert measured_rate(k5) == Fraction(3, 5) >= 2 * Fraction(3, 4) - 1


def all_views_in_inner(inst, word):
    return all(inst.inner.contains(local_view(inst, word, v))
               for v in range(inst.graph.n_vertices))


def test_local_view_conventions():
    inst = z6_even_instance()
    rng = random.Random(3)
    words = sorted(codeword_set_from_nullspace(inst))
    for w in words:
        assert all_views_in_inner(inst, w)
        for v in range(6):
            assert inst.inner.contains(local_view(inst, w, v))
    # a vector violating one view is rejected
    bad = words[1] ^ 1
    assert not all_views_in_inner(inst, bad)


def test_nullspace_equals_brute_force_z6():
    inst = z6_even_instance()
    assert codeword_set_from_nullspace(inst) == codeword_set_brute_force(inst)


def test_nullspace_equals_brute_force_z8():
    graph = zn_graph(8, [1, 7, 4])
    inst = build_parity_check(graph, CyclicCode(3, 0b11))
    ns = codeword_set_from_nullspace(inst)
    assert len(ns) == 1 << (inst.n - inst.rank)
    assert ns == codeword_set_brute_force(inst)


def test_nullspace_equals_brute_force_k5():
    inst = build_parity_check(zn_graph(5, [1, 2, 3, 4]), CyclicCode(4, 0b101))
    assert codeword_set_from_nullspace(inst) == codeword_set_brute_force(inst)


def test_edge_code_bounds():
    # boundary: delta == lambda gives a vacuous bound
    assert edge_code_bounds(Fraction(3, 5), Fraction(1, 2), 0.5) == (Fraction(1, 5), 0)
    # rate 1/2 gives a vacuous rate bound
    rate_lb, _ = edge_code_bounds(Fraction(1, 2), Fraction(1, 4), 0.1)
    assert rate_lb == 0
    # the headline instance: delta_B = 140/4094, lambda at the optimal bound
    import math
    lam = 2 * math.sqrt(4093) / 4094
    rate_lb, dist_lb = edge_code_bounds(Fraction(5, 8), Fraction(140, 4094), lam)
    assert rate_lb == Fraction(1, 4)
    assert 8e-6 < float(dist_lb) < 1e-5
    # conservative interval: the bound shrinks as the tolerance grows
    _, wider = edge_code_bounds(Fraction(5, 8), Fraction(140, 4094), lam, lam_tol=1e-3)
    assert wider < dist_lb
    with pytest.raises(ValueError):
        edge_code_bounds(Fraction(1, 2), Fraction(1, 2), 1.0)


def test_rate_example_values():
    # r(B) = 12/20 gives the 1/5 bound
    assert 2 * Fraction(12, 20) - 1 == Fraction(1, 5)


def permuted_rows(inst, perm):
    """Every row of H pushed through an edge permutation, packed."""
    indptr, indices = h_csr(inst)
    return Gf2Matrix.from_supports(inst.n, indptr, perm[indices])


def certify(inst, maps):
    """graphs.edge_orbit of a dict of star maps, or of a list named
    p0, p1, ..."""
    if not isinstance(maps, dict):
        maps = {f"p{i}": m for i, m in enumerate(maps)}
    return edge_orbit(inst.graph, maps)


def test_invariance_toy():
    inst = z17_torus_instance()
    named = {f"p{i}": m for i, m in enumerate(toy_maps(inst.graph, mult=2))}
    rep = verify_invariance(inst, certify(inst, named))
    assert rep.passed and rep.perm_names == sorted(named)
    assert rep.bad_perm is rep.bad_vertex is rep.bad_position is None
    rep.require()


def test_invariance_identity_perm_trivial():
    inst = z6_even_instance()
    ident = (np.arange(6), np.arange(3))
    rep = verify_invariance(inst, certify(inst, {"id": ident}))
    assert rep.passed
    # degree 1 (K_2): the one star edge is paired with itself
    k2 = build_parity_check(zn_graph(2, [1]), CyclicCode(1, 1))
    assert verify_invariance(k2, certify(k2, {"id": (np.arange(2), np.arange(1))})).passed


def test_invariance_detects_broken_permutation():
    """The identity with u swapped at vertices 9 and 10 (keys 3 and 5,
    both off the star of key 0) is a bijection of the flags, but no star
    map: vertex 1 (key 1) is joined to key 3 at position 1 (generator 2),
    and its image, vertex 1, is not joined there to key 5.  The rows of
    H pushed through the induced edge map leave rowspace(H)."""
    inst = z17_torus_instance()
    graph = inst.graph
    assert graph.keys[[1, 9, 10]].tolist() == [1, 3, 5] and graph.adj[1, 1] == 9
    bad = swapped((np.arange(17), np.arange(8)), 0, 9, 10)
    rep = verify_invariance(inst, certify(inst, {"bad": bad}))
    assert not rep.passed
    assert (rep.bad_perm, rep.bad_vertex, rep.bad_position) == ("bad", 1, 1)
    with pytest.raises(CheckFailure,
                       match="'bad' maps position 1 of the star of vertex 1 "):
        rep.require()
    moved = permuted_rows(inst, edge_permutation(graph, *bad))
    assert inst.matrix.echelon().reduce_batch(moved.data).any()
    # a vertex map, or a position map, that is not a bijection fails at
    # the first flag it sends where another flag goes
    merged = np.arange(17)
    merged[0] = 1
    rep = verify_invariance(inst, certify(inst, {"merged": (merged, np.arange(8))}))
    assert (rep.passed, rep.bad_vertex, rep.bad_position) == (False, 0, 0)
    merged = np.arange(8)
    merged[3] = 2
    rep = verify_invariance(inst, certify(inst, {"merged": (np.arange(17), merged)}))
    assert (rep.passed, rep.bad_vertex, rep.bad_position) == (False, 0, 2)


def assert_swap_in_star_rejected(inst, left, torus, i1, i2):
    """The torus star map with entries i1 and i2 of tau swapped still
    maps each star onto the star of u(v), but positions i1 and i2 onto
    each other's images, already at vertex 0: the one certificate names
    vertex 0 and the first of the two, and fails invariance, edge
    transitivity and single orbit with it; and the rows of H pushed
    through the induced edge map do leave rowspace(H)."""
    graph = inst.graph
    assert verify_invariance(inst, certify(inst, {"left": left, "torus": torus})).passed
    bad = swapped(torus, 1, i1, i2)
    orbit = certify(inst, {"left": left, "torus": bad})
    rep = verify_invariance(inst, orbit)
    assert not rep.passed and rep.bad_perm == "torus"
    assert (rep.bad_vertex, rep.bad_position) == (0, min(i1, i2))
    assert orbit.bad == ("torus", 0, min(i1, i2))
    assert not orbit.transitive and orbit.size is None
    single = verify_single_orbit(inst, orbit)
    assert not single.passed and single.orbit_rank is None
    with pytest.raises(CheckFailure, match=f"'torus' maps position {min(i1, i2)} of the "
                                           "star of vertex 0 "):
        single.require()
    moved = permuted_rows(inst, edge_permutation(graph, *bad))
    assert inst.matrix.echelon().reduce_batch(moved.data).any()


def test_invariance_detects_swap_inside_one_star():
    inst = z17_torus_instance()
    maps = toy_maps(inst.graph, mult=2)
    assert_swap_in_star_rejected(inst, maps[0], maps[-1], 6, 2)


def test_invariance_detects_swap_inside_one_star_q19(q19_psl_graph, q19_maps):
    inst = build_parity_check(q19_psl_graph, CyclicCode(20, 0b10001))
    assert_swap_in_star_rejected(inst, q19_maps["left_s0"], q19_maps["torus_t0"], 0, 1)


def test_invariance_certificate_rejects_a_position_map_off_the_dual():
    """Z_19, S = [1, 18, 2, 17, 5, 14], the graph automorphism x -> -x:
    every star maps onto a star, by tau = (01)(23)(45).  With h = x^2+x+1
    tau does not preserve the dual of the inner code, the certificate
    fails naming the map only, no vertex and no position (tau is one map
    for every vertex), for invariance and single orbit alike, and the
    reference reduction confirms that H is not invariant."""
    graph = zn_graph(19, [1, 18, 2, 17, 5, 14])
    inst = build_parity_check(graph, CyclicCode(6, 0b111))
    neg = toy_maps(graph, mult=18)[-1]
    orbit = certify(inst, {"neg": neg})
    assert orbit.taus == [("neg", [1, 0, 3, 2, 5, 4])]
    rep = verify_invariance(inst, orbit)
    assert not rep.passed
    assert (rep.bad_perm, rep.bad_vertex, rep.bad_position) == ("neg", None, None)
    message = "'neg' permutes the star positions by a map that does not preserve"
    with pytest.raises(CheckFailure, match=message):
        rep.require()
    with pytest.raises(CheckFailure, match=message):
        verify_single_orbit(inst, orbit).require()
    ech = reference_echelon(inst.matrix)
    moved = permuted_rows(inst, edge_permutation(graph, *neg))
    assert not all(contains(ech, row) for row in moved.data)


@given(st.integers(min_value=5, max_value=16), st.data())
@settings(deadline=None, max_examples=150)
def test_invariance_pass_implies_rows_in_span(n, data):
    """Soundness on toy Z_n instances: whenever the certificate passes a
    star map (a left translation, a multiplication by a unit that fixes
    S, or either with two entries of u or of tau swapped), every row of
    H pushed through the induced edge map reduces to zero against the
    echelon form of H.  S comes in a random order, so a multiplication
    permutes the star positions by a random-looking tau that often
    breaks the cyclic dual; a failure names the map, and a vertex and a
    position exactly when the map is no star map."""
    steps = data.draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=6))
    steps = data.draw(st.permutations(sorted(steps | {n - s for s in steps})))
    graph = zn_graph(n, steps)
    inst = build_parity_check(graph, CyclicCode(graph.degree, draw_check_poly(graph, data)))
    units = [u for u in range(2, n) if gcd(u, n) == 1
             and {u * s % n for s in steps} == set(steps)]
    mult = data.draw(st.sampled_from([None] + units))
    maps = toy_maps(graph, mult)
    star_map = maps[-1] if mult else data.draw(st.sampled_from(maps))
    if data.draw(st.booleans()):
        star_map = draw_swap(star_map, data)
    orbit = certify(inst, {"p": star_map})
    rep = verify_invariance(inst, orbit)
    if rep.passed:
        moved = permuted_rows(inst, edge_permutation(graph, *star_map))
        assert not inst.matrix.echelon().reduce_batch(moved.data).any()
    elif orbit.bad is None:
        assert (rep.bad_perm, rep.bad_vertex, rep.bad_position) == ("p", None, None)
    else:
        assert rep.bad_perm == "p" and 0 <= rep.bad_vertex < graph.n_vertices
        assert 0 <= rep.bad_position < graph.degree


def draw_swap(star_map, data):
    """The star map with two drawn entries of u, or of tau, swapped."""
    part = data.draw(st.integers(0, 1))
    a, b = data.draw(st.lists(st.integers(0, len(star_map[part]) - 1),
                              min_size=2, max_size=2))
    return swapped(star_map, part, a, b)


def factor_x_pow_n_minus_1(n):
    """Irreducible factors of x^n - 1 over GF(2), with multiplicity
    (trial division in increasing order finds irreducibles first)."""
    rest, out, f = x_pow_n_minus_1(n), [], 3
    while rest != 1:
        quot, rem = divmod_(rest, f)
        if rem:
            f += 1
        else:
            out.append(f)
            rest = quot
    return out


def draw_check_poly(graph, data):
    """A drawn divisor of x^degree - 1, short of the zero code."""
    factors = factor_x_pow_n_minus_1(graph.degree)
    chosen = data.draw(st.lists(st.booleans(), min_size=len(factors),
                                max_size=len(factors)))
    chosen[0] = chosen[0] and not all(chosen)  # the zero code is excluded
    h = 1
    for f, take in zip(factors, chosen):
        if take:
            h = mul(h, f)
    return h


def reference_row_orbit(inst, perms, start_row=0):
    """The one-support-at-a-time BFS over sorted support tuples: the
    slow reference for the row BFS oracle."""
    plists = [perm.tolist() for perm in perms]
    start = tuple(rows_of(*h_csr(inst))[start_row])
    seen = {start}
    queue = [start]
    head = 0
    while head < len(queue):
        sup = queue[head]
        head += 1
        for plist in plists:
            img = tuple(sorted(plist[c] for c in sup))
            if img not in seen:
                seen.add(img)
                queue.append(img)
    return queue


def assert_orbit_matches_reference(inst, perms, start_row=0):
    orbit = oracle.row_orbit(inst, perms, start_row)
    assert [tuple(r) for r in orbit.tolist()] == reference_row_orbit(inst, perms, start_row)


def assert_certificate_matches_row_oracle(inst, maps):
    """From row 0 the oracle's row orbit under the induced edge maps has
    |orbit of vertex 0| x |Gamma.w0| rows, and those on the star of
    vertex 0 are L_0 of the words of tanner.row_orbit, Gamma.w0."""
    rows = oracle.row_orbit(inst, edge_perms(inst.graph, maps))
    orbit = certify(inst, maps)
    words = row_orbit(inst, orbit)
    assert words[0] == inst.dual_rows[0] and len(set(words)) == len(words)
    assert len(rows) == orbit.vertices * len(words)
    vertex, masks = oracle.locate_rows(inst, rows)
    assert sorted(m for v, m in zip(vertex.tolist(), masks) if v == 0) == sorted(words)


def test_row_orbit_matches_reference_toys():
    inst = z6_even_instance()
    assert_orbit_matches_reference(inst, toy_perms(inst.graph))
    assert_certificate_matches_row_oracle(inst, toy_maps(inst.graph))
    inst = z17_torus_instance()
    for mult in (None, 2):
        for start in (0, 1, 7):
            assert_orbit_matches_reference(inst, toy_perms(inst.graph, mult), start)
        assert_certificate_matches_row_oracle(inst, toy_maps(inst.graph, mult))


def test_row_orbit_matches_reference_q19(q19_psl_graph, q19_maps, q19_edge_perms):
    # the [20, 16] inner code h = (x + 1)^4 keeps the tuple BFS short
    inst = build_parity_check(q19_psl_graph, CyclicCode(20, 0b10001))
    perms = list(q19_edge_perms.values())
    assert_orbit_matches_reference(inst, perms)
    assert_orbit_matches_reference(inst, perms[::-1], start_row=5)
    assert_certificate_matches_row_oracle(inst, list(q19_maps.values()))
    assert len(row_orbit(inst, certify(inst, q19_maps))) == 4


def endpoint_vertices(graph, flags, e):
    v, i = flags[e]
    return int(v), int(graph.adj[v, i])


def reference_locate_row_vertex(graph, flags, support):
    """(vertex, local mask) when the support lies in one vertex's star,
    searched row by row over the endpoint stars of its first two edges,
    whose canonical flags are read from flags: the slow reference for the
    oracle's locate_rows."""
    ends = [set(endpoint_vertices(graph, flags, e)) for e in support[:2]]
    candidates = ends[0] if len(ends) == 1 else ends[0] & ends[1]
    for v in candidates:
        positions = {e: i for i, e in enumerate(graph.eid[v].tolist())}
        if all(e in positions for e in support):
            mask = 0
            for e in support:
                mask |= 1 << positions[e]
            return v, mask
    return None


def reference_single_orbit(inst, located):
    """(passed, bad_row, bad_vertex) of the per-vertex check, from the
    orbit rows' (vertex, local mask) pairs, None for a non-local row."""
    local_masks = {}
    for idx, found in enumerate(located):
        if found is None:
            return False, idx, None
        v, mask = found
        local_masks.setdefault(v, []).append(mask)
    for v in range(inst.graph.n_vertices):
        if not int_span_equal(local_masks.get(v, []), inst.dual_rows):
            return False, None, v
    return True, None, None


def assert_oracle_matches_reference(inst, perms, start_row=0):
    """The oracle locates every orbit row as the row-by-row search does,
    and its per-vertex check agrees with the reference; returns it."""
    orbit = oracle.row_orbit(inst, perms, start_row)
    flags = canonical_flags(inst.graph)
    located = [reference_locate_row_vertex(inst.graph, flags, sup) for sup in orbit.tolist()]
    vertex, masks = oracle.locate_rows(inst, orbit)
    assert [None if v < 0 else (v, m) for v, m in zip(vertex.tolist(), masks)] == located
    result = oracle.single_orbit(inst, orbit)
    assert result == reference_single_orbit(inst, located)
    return result


def test_single_orbit_matches_reference_q19(q19_psl_graph, q19_maps, q19_edge_perms):
    """Passing and failing runs on q = 19 with the [20, 16] inner code:
    the certificate agrees with the per-vertex oracle, which agrees with
    the row-by-row reference.  Without the torus the left translation by
    s0 alone reaches only the coset of its cyclic group."""
    inst = build_parity_check(q19_psl_graph, CyclicCode(20, 0b10001))
    perms = list(q19_edge_perms.values())
    assert assert_oracle_matches_reference(inst, perms[::-1], start_row=5)[0]
    assert assert_oracle_matches_reference(inst, perms)[0]
    assert verify_single_orbit(inst, certify(inst, q19_maps)).passed
    assert assert_oracle_matches_reference(inst, [q19_edge_perms["left_s0"]])[2] is not None
    orbit = certify(inst, {"left_s0": q19_maps["left_s0"]})
    assert orbit.missed is not None and orbit.vertices < 3420
    rep = verify_single_orbit(inst, orbit)
    with pytest.raises(CheckFailure, match=f"never reach vertex {orbit.missed} from vertex 0"):
        rep.require()


def test_single_orbit_weight_one_rows_match_reference():
    """A weight-1 row lies on both endpoint stars; the vertex the oracle
    credits it to, and its mask there, must be the reference's choice.  No
    nonzero cyclic inner code has weight-1 dual words, so the local dual
    is made by hand: all unit words, whose rows are the single edges, each
    on the stars of both its ends (row j < degree is edge j)."""
    for n, steps, mult in ((6, [1, 5, 3], None), (17, [pow(2, i, 17) for i in range(8)], 2),
                           (40, [1, 39, 9, 31], None)):
        graph = zn_graph(n, steps)
        inst = replace(build_parity_check(graph, CyclicCode(graph.degree, 0b11)),
                       dual_rows=[1 << i for i in range(graph.degree)])
        perms = toy_perms(graph, mult)
        for start in (0, 1, 2):
            assert not assert_oracle_matches_reference(inst, perms, start)[0]
            assert_oracle_matches_reference(inst, perms[:1], start)


def orbit_oracle(inst, perms):
    """The global route, kept as an independent check of the local
    certificate: (rank of the raw orbit rows, whether every orbit row
    reduces to zero against the echelon form of H)."""
    orbit = Gf2Matrix.from_supports(inst.n, *csr(oracle.row_orbit(inst, perms).tolist()))
    in_span = not inst.matrix.echelon().reduce_batch(orbit.data).any()
    return orbit.echelon().rank, in_span


def test_single_orbit_toy_even_weight():
    """T trivial, inner = even-weight code: the orbit of the single
    all-ones star row under translations is exactly the row set."""
    inst = z6_even_instance()
    perms = toy_perms(inst.graph)
    rep = verify_single_orbit(inst, certify(inst, toy_maps(inst.graph)))
    assert rep.passed and rep.orbit_size == 6 == len(oracle.row_orbit(inst, perms))
    assert rep.orbit_rank == rep.rank_h == 5
    # the global route agrees with the local certificate
    assert orbit_oracle(inst, perms) == (rep.rank_h, True)


def test_single_orbit_toy_torus():
    inst = z17_torus_instance()
    perms = toy_perms(inst.graph, mult=2)
    rep = verify_single_orbit(inst, certify(inst, toy_maps(inst.graph, mult=2)))
    assert rep.passed and rep.failure is None
    assert rep.orbit_rank == rep.rank_h
    assert orbit_oracle(inst, perms) == (rep.rank_h, True)


def test_single_orbit_fails_without_torus():
    """Dropping the multiplicative generator leaves only translations:
    the stabiliser of vertex 0 is trivial, Gamma.w0 is w0 alone, and its
    span misses the shifted dual words, as the oracles confirm."""
    inst = z17_torus_instance()
    perms = toy_perms(inst.graph)  # translations only
    orbit = certify(inst, toy_maps(inst.graph))
    assert orbit.missed is None and orbit.schreier.tolist() == [list(range(8))]
    rep = verify_single_orbit(inst, orbit)
    assert not rep.passed and rep.orbit_rank is None
    assert rep.orbit_size == 17
    orbit_rank, _ = orbit_oracle(inst, perms)
    assert orbit_rank < rep.rank_h
    assert oracle.single_orbit(inst, oracle.row_orbit(inst, perms))[2] is not None
    with pytest.raises(CheckFailure, match=r"spans rank 1, not the dual of the inner "
                                           r"code \(rank 3\) \(orbit size 17, "):
        rep.require()


def test_single_orbit_names_a_permutation_that_is_no_star_map():
    """The identity with u swapped at vertex 0, where the starting row
    lies, and vertex 9 (key 3), off its star, is no star map: the
    certificate names it at the first flag where it breaks, position 0
    of vertex 0, and fails all three checks; the oracle's orbit under
    the induced edge maps leaves the stars, first at its row 11."""
    inst = z17_torus_instance()
    graph = inst.graph
    maps = toy_maps(graph, mult=2)
    assert 9 not in graph.adj[0] and graph.keys[9] == 3
    swap = swapped((np.arange(17), np.arange(8)), 0, 0, 9)
    orbit = certify(inst, {"swap": swap, **{f"p{i}": m for i, m in enumerate(maps)}})
    assert orbit.bad == ("swap", 0, 0)
    assert orbit.size is None and not orbit.transitive
    assert not verify_invariance(inst, orbit).passed
    rep = verify_single_orbit(inst, orbit)
    assert not rep.passed and rep.orbit_rank is None
    with pytest.raises(CheckFailure, match="'swap' maps position 0 of the star of vertex 0 "):
        rep.require()
    rows = oracle.row_orbit(inst, edge_perms(graph, [swap] + maps))
    assert oracle.single_orbit(inst, rows)[1] == 11


def test_single_orbit_names_a_vertex_the_orbit_misses():
    """Z_6, S = [1, 5, 3]: the translation by 3 alone pairs vertex 0
    (key 0) with vertex 3 (key 3), so the orbit of vertex 0 misses
    vertex 1 (key 1), and the certificate names it; the per-vertex
    oracle fails too."""
    inst = z6_even_instance()
    half_turn = toy_maps(inst.graph)[2]
    orbit = certify(inst, {"half_turn": half_turn})
    assert (orbit.vertices, orbit.missed, orbit.transitive) == (2, 1, False)
    rep = verify_single_orbit(inst, orbit)
    assert not rep.passed and rep.orbit_size == 2
    with pytest.raises(CheckFailure, match="never reach vertex 1 from vertex 0"):
        rep.require()
    moved = edge_permutation(inst.graph, *half_turn)
    assert not oracle.single_orbit(inst, oracle.row_orbit(inst, [moved]))[0]


@given(st.integers(min_value=5, max_value=16), st.data())
@settings(deadline=None, max_examples=60)
def test_single_orbit_pass_implies_global_oracle(n, data):
    """The certificate against the oracles on toy Z_n instances: S in a
    drawn order, a drawn multiplier, a drawn subset of the star maps, a
    drawn cyclic inner code, and sometimes two entries of u or of tau
    swapped in one map; the oracles run on the induced edge maps.  While
    every map is a star map the certificate counts the oracle's edge
    orbit and agrees with the per-vertex oracle (the converse in
    verify_single_orbit); whenever it passes, the oracle passes with as
    many rows, and the global route agrees: the raw orbit rows have
    rank(H) and lie in the row space of H."""
    steps = data.draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=6))
    steps = data.draw(st.permutations(sorted(steps | {n - s for s in steps})))
    graph = zn_graph(n, steps)
    inst = build_parity_check(graph, CyclicCode(graph.degree, draw_check_poly(graph, data)))
    if not inst.dual_rows:
        return
    units = [u for u in range(2, n) if gcd(u, n) == 1
             and {u * s % n for s in steps} == set(steps)]
    all_maps = toy_maps(graph, mult=data.draw(st.sampled_from([None] + units)))
    keep = data.draw(st.lists(st.booleans(), min_size=len(all_maps),
                              max_size=len(all_maps)))
    maps = [m for m, k in zip(all_maps, keep) if k] or all_maps[:1]
    if data.draw(st.booleans()):
        t = data.draw(st.integers(0, len(maps) - 1))
        maps[t] = draw_swap(maps[t], data)
    perms = edge_perms(graph, maps)
    orbit = certify(inst, maps)
    rep = verify_single_orbit(inst, orbit)
    rows = oracle.row_orbit(inst, perms)
    passed = oracle.single_orbit(inst, rows)[0]
    if orbit.bad is None:
        assert orbit.size == oracle.point_orbit(perms, inst.n)
        assert rep.passed == passed
    if rep.passed:
        assert passed and rep.orbit_size == len(rows)
        assert rep.orbit_rank == rep.rank_h == inst.rank
        assert orbit_oracle(inst, perms) == (rep.rank_h, True)
    else:
        assert rep.orbit_rank is None and rep.failure


# ---------------------------------------------------------------------------
# rank of H by star elimination
# ---------------------------------------------------------------------------

def draw_zn_graph(n, involution, data):
    """A toy Cayley graph of Z_n: S symmetric, in a drawn order, with or
    without the involution n/2."""
    steps = data.draw(st.sets(st.integers(1, (n - 1) // 2), min_size=1, max_size=5))
    steps |= {n - s for s in steps} | ({n // 2} if involution and n % 2 == 0 else set())
    return zn_graph(n, data.draw(st.permutations(sorted(steps))))


@given(st.integers(min_value=3, max_value=24), st.booleans(), st.data())
@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_star_rank_matches_reference(packed, n, involution, data):
    """On toy Z_n instances (S symmetric, with or without the involution
    n/2, h any divisor of x^d - 1 short of the zero code, h = 1 leaving
    B-dual empty) the star rank is the column-at-a-time rank of H.  The
    rank never packs H: every matrix it packs is a residual, which lacks
    the pivot columns of I, and I is not empty when B-dual is not."""
    packed.clear()
    graph = draw_zn_graph(n, involution, data)
    inst = build_parity_check(graph, CyclicCode(graph.degree, draw_check_poly(graph, data)))
    rank = inst.rank
    assert all(ncols < inst.n for ncols, _ in packed)
    assert rank == reference_echelon(inst.matrix).rank
    vertices, positions, _ = inst.pivots
    assert positions.shape == (vertices.size, len(inst.dual_rows))


@given(st.integers(min_value=3, max_value=24), st.booleans(), st.data())
@settings(deadline=None, max_examples=150)
def test_star_rank_by_components_matches_reference(n, involution, data):
    """Inner codes with generator x^k + 1, k | d, k < d: B-dual is
    spanned by the k residue classes mod k, which are disjoint, so every
    residual column has weight 0 or 2 and the rank is counted from the
    components, never packed or eliminated; the column-at-a-time rank of
    H agrees."""
    graph = draw_zn_graph(n, involution, data)
    degree = graph.degree                # at least 2: S holds some s and n - s
    k = data.draw(st.sampled_from([k for k in range(1, degree) if degree % k == 0]))
    inst = build_parity_check(graph, CyclicCode(degree, 1 << k | 1))
    with mock.patch.object(Gf2Matrix, "from_supports",
                           side_effect=AssertionError("the residual was packed")):
        rank = inst.rank
    assert rank == reference_echelon(inst.matrix).rank


def test_residual_rank_of_incidence_matrices():
    """Columns of weight 0 or 2 are the edges of a multigraph on the
    rows: rank = rows - components, isolated and empty rows included."""
    def rank(nrows, ncols, entries):
        row, col = np.array(sorted(entries), dtype=np.int64).reshape(-1, 2).T
        return residual_rank(nrows, ncols, row, col)

    triangle = [(0, 0), (0, 2), (1, 0), (1, 1), (2, 1), (2, 2)]
    assert rank(3, 3, triangle) == 2
    # rows 1 and 5 empty; components {0, 2} (a double edge) and {3, 4, 6}
    # (a path); column 2 empty
    two = [(0, 0), (2, 0), (0, 1), (2, 1), (3, 3), (4, 3), (4, 4), (6, 4)]
    assert rank(7, 5, two) == 7 - 4 == 3
    assert rank(4, 0, []) == 0


@given(st.integers(min_value=1, max_value=40), st.data())
@settings(deadline=None, max_examples=100)
def test_residual_rank_of_random_multigraphs(nrows, data):
    """Random multigraphs, loops excluded (a column has two distinct
    rows), with empty columns mixed in: rows - components equals the
    column-at-a-time rank."""
    pairs = data.draw(st.lists(st.tuples(st.integers(0, nrows - 1),
                                         st.integers(0, nrows - 1)).filter(lambda p: p[0] != p[1]),
                               max_size=60) if nrows > 1 else st.just([]))
    empty = data.draw(st.integers(0, 3))
    ncols = len(pairs) + empty
    entries = sorted((r, c) for c, pair in enumerate(pairs) for r in pair)
    row, col = np.array(entries, dtype=np.int64).reshape(-1, 2).T
    supports = [[c for r, c in entries if r == i] for i in range(nrows)]
    want = reference_echelon(reference_from_supports(ncols, supports)).rank
    assert residual_rank(nrows, ncols, row, col) == want


def entries_of(supports):
    """(row, col) arrays of the entries of a matrix given by its rows."""
    return np.array([(r, c) for r, sup in enumerate(supports) for c in sup],
                    dtype=np.int64).reshape(-1, 2).T


def shapes(packed):
    """(ncols, nrows) of each packed matrix."""
    return [(ncols, len(rows)) for ncols, rows in packed]


def light_columns(ncols, rows):
    """The number of columns of weight 1 or 2."""
    weight = np.bincount([c for sup in rows for c in sup], minlength=ncols)
    return int(np.count_nonzero((weight == 1) | (weight == 2)))


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30),
       st.data())
@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_residual_rank_of_random_sparse_matrices(packed, nrows, ncols, data):
    """Random sparse matrices, columns of weight 0 to 6 (weight-1
    columns and empty rows included): the contracted rank equals the
    column-at-a-time rank.  A column of weight 1 or 2 is packed only
    when the last round kept more than half of its rows."""
    packed.clear()
    columns = [data.draw(st.sets(st.integers(0, nrows - 1), max_size=min(6, nrows)))
               if nrows else set() for _ in range(ncols)]
    supports = [[c for c, rows in enumerate(columns) if r in rows] for r in range(nrows)]
    want = reference_echelon(reference_from_supports(ncols, supports)).rank
    with mock.patch.object(tanner, "_components", wraps=tanner._components) as rounds:
        assert residual_rank(nrows, ncols, *entries_of(supports)) == want
    assert len(packed) <= 1
    for ncols_left, rows_left in packed:
        if light_columns(ncols_left, rows_left):
            before = rounds.call_args.args[0] - 1      # the rows of the last round
            assert 2 * len(rows_left) > before


def test_residual_rank_contracts_in_rounds(packed):
    """Column 2 has weight 3 until columns 0 and 1 merge rows 0, 1 and
    rows 2, 3; the first pair's sum cancels it, so it is then a weight-1
    column on the second component and goes in a second round, the
    first having halved the rows.  Nothing is left to pack."""
    supports = [[0, 2], [0, 2], [1, 2], [1]]
    with mock.patch.object(tanner, "_components", wraps=tanner._components) as rounds:
        assert residual_rank(4, 3, *entries_of(supports)) == 3
    assert rounds.call_count == 2 and packed == []
    assert reference_echelon(reference_from_supports(3, supports)).rank == 3


def test_residual_rank_weight_one_column_grounds_its_component(packed):
    """A weight-1 column joins its row to ground: the component {0, 1}
    then has no row relation and adds both rows to the rank (a count
    that ignored ground would give 1).  With a heavy column on all three
    rows the grounded component drops out and row 2 is left alone."""
    assert residual_rank(2, 2, *entries_of([[0], [0, 1]])) == 2
    supports = [[0, 1, 2], [0, 2], [2]]
    assert residual_rank(3, 3, *entries_of(supports)) == 3
    assert reference_echelon(reference_from_supports(3, supports)).rank == 3
    assert packed == []


def test_residual_rank_hands_a_cascade_to_the_kernel(packed):
    """The all-ones upper triangle loses two rows a round (column 0
    grounds row 0, column 1 joins row 1 to it, and what is left is the
    triangle two sizes down), so contracting it to the end would take
    n / 2 rounds over all its entries.  The first round keeps more than
    half of the rows, so the rest is packed and eliminated at once."""
    n = 400
    supports = [list(range(r, n)) for r in range(n)]
    with mock.patch.object(tanner, "_components", wraps=tanner._components) as rounds:
        assert residual_rank(n, n, *entries_of(supports)) == n
    assert rounds.call_count == 1 and shapes(packed) == [(n - 2, n - 2)]


def test_residual_rank_sends_heavier_columns_to_the_kernel(packed):
    """No column has weight 1 or 2, so nothing contracts: the matrix is
    packed as it is and eliminated by the word-block kernel."""
    supports = [[0, 1], [0, 1, 2], [0, 1, 2], [0, 2]]    # weights 4, 3, 3
    with mock.patch.object(Gf2Matrix, "echelon", autospec=True,
                           side_effect=Gf2Matrix.echelon) as echelon:
        assert residual_rank(4, 3, *entries_of(supports)) == 3
    assert echelon.call_count == 1 and shapes(packed) == [(3, 4)]


def test_residual_rank_sort_key_passes_int32(packed):
    """A 4 x 4 matrix in the last rows and columns of a 70000 x 70000
    one, so rows x ncols > 2^31: the contraction round sums its heavy
    column through the key component * ncols + col, which passes 2^31
    (component about 70000: every empty row is a component) and must be
    int64.  The rank is the small matrix's."""
    small = [[0, 2], [0, 1, 2], [1, 2], [2, 3]]    # weights 2, 2, 4, 1
    n, base = 70000, 70000 - 4
    row, col = entries_of(small)
    want = reference_echelon(reference_from_supports(4, small)).rank
    assert residual_rank(n, n, row + base, col + base) == want == 4
    # one round: rows 0..69995 and {69996, 69997, 69998} stay as
    # components, 69999 is grounded; the triple sums to column 2 alone
    ((ncols_left, rows_left),) = packed
    assert ncols_left == 1 and len(rows_left) == n - 3
    assert [i for i, r in enumerate(rows_left) if r] == [n - 4]


@given(st.integers(1, 30), st.integers(2, 30), st.booleans(), st.integers(1, 40), st.data())
@settings(deadline=None, max_examples=200)
def test_blocked_sum_is_the_whole_array_sum(nrows, ncols, wide, height, data):
    """Entries repeated 1 to 3 times, in blocks of `height` rows, each
    block shuffled and split into two parts: the blocked sum keeps those
    of odd multiplicity, once each, in row order, as int32, exactly as the
    whole-array sum of residual_reference does.  The sorted keys are read
    _STEP at a time, here 1 to 5 as well, so runs cross the steps.  With
    `wide` the rows start past 2^31 / ncols and the first block reaches
    back to row 0, so its keys (row - start) * ncols + col pass 2^31 and
    must be int64 (int32 keys would wrap and break the equality); every
    other block has int32 keys."""
    entries = data.draw(st.lists(st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)),
                                 unique=True, max_size=40))
    times = data.draw(st.lists(st.integers(1, 3), min_size=len(entries),
                               max_size=len(entries)))
    flat = [e for e, k in zip(entries, times) for _ in range(k)]
    offset = -(-2**31 // ncols) if wide else 0
    blocks = []
    for start in range(0, nrows, height):
        inside = data.draw(st.permutations([(r + offset, c) for r, c in flat
                                            if start <= r < start + height]))
        row, col = np.array(inside, dtype=np.int32).reshape(-1, 2).T
        cut = data.draw(st.integers(0, len(inside)))
        blocks.append((0 if wide and start == 0 else offset + start,
                       offset + min(start + height, nrows),
                       [(row[:cut], col[:cut]), (row[cut:], col[cut:])]))
    whole = np.array([(r + offset, c) for r, c in flat], dtype=np.int32).reshape(-1, 2).T
    want = odd_entries(offset + nrows, ncols, len(flat), [tuple(whole)])
    with mock.patch.object(tanner, "_STEP", data.draw(st.sampled_from([1, 2, 3, 5, 1 << 14]))):
        got = tanner._odd_entries(ncols, len(flat), blocks)
    assert got[0].dtype == got[1].dtype == np.int32
    assert [a.tolist() for a in got] == [a.tolist() for a in want]
    assert list(zip(*want)) == sorted(
        (r + offset, c) for (r, c), k in zip(entries, times) if k % 2)


def assert_residual_is_the_whole_array_residual(inst):
    """star_rank hands residual_rank the residual that residual_reference
    builds whole, and the rank does not change."""
    with mock.patch.object(tanner, "residual_rank", wraps=tanner.residual_rank) as rounds:
        rank = tanner.star_rank(inst)
    if inst.dual_rows:
        nrows, ncols, row, col = rounds.call_args.args
        want = star_residual(inst)
        assert (nrows, ncols) == want[:2]
        assert row.tolist() == want[2].tolist() and col.tolist() == want[3].tolist()
    return rank


@given(st.integers(min_value=3, max_value=24), st.booleans(), st.integers(1, 40), st.data())
@settings(deadline=None, max_examples=100)
def test_star_residual_in_blocks_is_the_whole_array_residual(n, involution, block, data):
    """The residual is summed _BLOCK outside vertices at a time, here 1 to
    40, on toy Z_n instances with a drawn inner code."""
    graph = draw_zn_graph(n, involution, data)
    inst = build_parity_check(graph, CyclicCode(graph.degree, draw_check_poly(graph, data)))
    with mock.patch.object(tanner, "_BLOCK", block):
        rank = assert_residual_is_the_whole_array_residual(inst)
    assert rank == reference_echelon(inst.matrix).rank


@pytest.mark.parametrize("block", [1, 37, 1 << 8])
def test_star_residual_in_blocks_on_instances(block, q19_instance, q5e2_psl_graph):
    """The same on q = 19 PSL [20,12] and q = 5, e = 2 PSL [6,4]."""
    q5e2 = build_parity_check(q5e2_psl_graph, CyclicCode(6, 0b111))
    with mock.patch.object(tanner, "_BLOCK", block):
        assert assert_residual_is_the_whole_array_residual(q19_instance) == 27032
        assert assert_residual_is_the_whole_array_residual(q5e2) == 15598


def test_residual_memory_guard(monkeypatch, packed, q5e2_psl_graph):
    """rows x 64-column words x 8 bytes above spectra.MATRIX_BYTES_LIMIT
    is refused before packing: the q = 43 [44,40] residual would take
    4.3 GB; q = 19 [20,12] (15424 x 22264, 43 MB) still fits.  The guard
    names what would be packed: for q = 5, e = 2 with [6,4] the 1933 x
    9586 left after contraction, not the 6434 x 14234 residual."""
    with pytest.raises(ValueError, match=r"\(45668 x 760844\) would take 4344 MB "
                                         "packed, above the 256 MB limit"):
        require_packed_fits("the star-elimination residual", 45668, 760844)
    require_packed_fits("the star-elimination residual", 15424, 22264)
    monkeypatch.setattr(spectra, "MATRIX_BYTES_LIMIT", 10**6)
    inst = build_parity_check(q5e2_psl_graph, CyclicCode(6, 0b111))
    with pytest.raises(ValueError, match=r"\(1933 x 9586\) would take 2 MB packed, "
                                         "above the 1 MB limit"):
        inst.rank
    assert packed == []


def test_matrix_memory_guard(monkeypatch, packed, q19_psl_graph, inner20):
    """CayleyCodeInstance.matrix refuses an H above
    spectra.MATRIX_BYTES_LIMIT before packing it, with its shape and
    size, and packs nothing: at q = 19 H is 13680 x 34200 with [20,16]
    and 27360 x 34200 with [20,12]."""
    monkeypatch.setattr(spectra, "MATRIX_BYTES_LIMIT", 50 * 10**6)
    for inner, message in [
            (CyclicCode(20, 0b10001), r"H \(13680 x 34200\) would take 59 MB packed, "
                                      "above the 50 MB limit"),
            (inner20, r"H \(27360 x 34200\) would take 117 MB packed")]:
        inst = build_parity_check(q19_psl_graph, inner)
        with pytest.raises(ValueError, match=message):
            inst.matrix
    assert packed == []


@pytest.mark.parametrize("name", ["q19", "q5e2"])
def test_star_rank_exact_on_cli_instances(name, q19_psl_graph, q5e2_psl_graph, packed):
    """The benchmark instances: q = 19 PSL with [20,16], whose residual
    contracts to nothing in one round and is never packed, and q = 5,
    e = 2 PSL with [6,4], whose 6434 x 14234 residual contracts to 1933
    x 9586, the one matrix packed, with no column of weight 1 or 2; the
    word-block kernel on all of H agrees."""
    graph, inner, rank, want = {
        "q19": (q19_psl_graph, CyclicCode(20, 0b10001), 13566, []),
        "q5e2": (q5e2_psl_graph, CyclicCode(6, 0b111), 15598, [(9586, 1933)])}[name]
    inst = build_parity_check(graph, inner)
    assert inst.rank == rank
    assert shapes(packed) == want
    assert not any(light_columns(*matrix) for matrix in packed)
    assert inst.matrix.echelon().rank == rank


@pytest.mark.parametrize("q,components", [(19, 114), (43, 2)])
def test_rank_of_h_from_its_own_column_graph(q, components, request):
    """Cross-check for x^4 + 1: rank H(B) = r|V| - dim C(G, B-dual), and
    every column of H has weight 2 (one residue class at each end), so
    dim C(G, B-dual) is the number of components of H's column graph on
    its r|V| rows, found here by union-find: 114 at q = 19 and 2 at
    q = 43 (PSL, [20,16] and [44,40])."""
    graph = request.getfixturevalue(f"q{q}_psl_graph")
    inst = build_parity_check(graph, CyclicCode(q + 1, 0b10001))
    # the two rows of each column, from the entries in column order
    indptr, indices = h_csr(inst)
    order = np.argsort(indices, kind="stable")
    assert np.array_equal(indices[order], np.repeat(np.arange(inst.n), 2))
    ends = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))[order]
    parent = list(range(indptr.size - 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in ends.reshape(-1, 2).tolist():
        parent[find(a)] = find(b)
    assert sum(find(x) == x for x in range(len(parent))) == components
    assert inst.rank == len(parent) - components == {19: 13566, 43: 158926}[q]


def test_star_rank_q19_20_12(q19_instance):
    assert q19_instance.rank == 27032


def relabeled_pivots(inst, seed):
    """Star pivots chosen by the same greedy on randomly relabeled
    vertices, mapped back: a different I, the same rank(H)."""
    graph = inst.graph
    new_id = np.random.default_rng(seed).permutation(graph.n_vertices)
    old_id = np.argsort(new_id)
    shuffled = replace(graph, adj=new_id[graph.adj[old_id]])
    vertices, positions, words = star_pivots(shuffled, inst.dual_rows)
    return StarPivots(old_id[vertices], positions, words)


def test_star_rank_q19_pgl(q19_pgl_graph, packed):
    """q = 19 PGL (6840 vertices, bipartite), where H with [20,16] would
    take 234 MB packed: the even-weight code gives the incidence matrix,
    of rank |V| - 1 on a connected graph, and with [20,16] two different
    sets I give the same rank, 27356; nothing is packed."""
    even = build_parity_check(q19_pgl_graph, CyclicCode(20, 0b11))
    assert even.rank == q19_pgl_graph.n_vertices - 1
    inst = build_parity_check(q19_pgl_graph, CyclicCode(20, 0b10001))
    other = build_parity_check(q19_pgl_graph, inst.inner)
    other.pivots = relabeled_pivots(other, 5)
    assert not np.array_equal(np.sort(other.pivots.vertices), inst.pivots.vertices)
    assert other.rank == inst.rank == 27356
    assert packed == []


@pytest.mark.parametrize("seed", range(3))
def test_star_rank_independent_of_the_choice_of_i(seed):
    inst = z17_torus_instance()
    other = build_parity_check(inst.graph, inst.inner)
    other.pivots = relabeled_pivots(other, seed)
    assert other.rank == inst.rank == reference_echelon(inst.matrix).rank


def dependent_positions(inst):
    """r star positions whose columns of B-dual are dependent."""
    r = len(inst.dual_rows)
    columns = [sum((w >> i & 1) << j for j, w in enumerate(inst.dual_rows))
               for i in range(inst.graph.degree)]
    return next(list(c) for c in combinations(range(inst.graph.degree), r)
                if len(independent([columns[i] for i in c])) < r)


@pytest.mark.parametrize("name", ["z17", "q19"])
def test_star_rank_rejects_a_non_information_set(name, q19_psl_graph):
    inst = (z17_torus_instance() if name == "z17"
            else build_parity_check(q19_psl_graph, CyclicCode(20, 0b10001)))
    vertices, positions, words = inst.pivots
    a = len(vertices) // 2
    positions = positions.copy()
    positions[a] = dependent_positions(inst)
    inst.pivots = StarPivots(vertices, positions, words)
    with pytest.raises(CheckFailure, match=re.escape(
            f"vertex {vertices[a]} has pivot positions {positions[a].tolist()}, "
            "not an information set")):
        inst.rank


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("name", ["z17", "q19"])
def test_star_rank_rejects_a_pivot_word_outside_the_dual(name, where, q19_psl_graph):
    """words[a, 0] + e_f, for f outside P_v, still has bit P_v[0] and no
    other pivot bit, but it leaves span(B-dual): the complement branch of
    check 1 names vertex a, the first or the last vertex of I."""
    inst = (z17_torus_instance() if name == "z17"
            else build_parity_check(q19_psl_graph, CyclicCode(20, 0b10001)))
    vertices, positions, words = inst.pivots
    a = 0 if where == "first" else len(vertices) - 1
    f = min(set(range(inst.graph.degree)) - set(positions[a].tolist()))
    words = words.copy()
    words[a, 0] ^= 1 << f
    r = len(inst.dual_rows)
    assert len(independent(inst.dual_rows + [int(words[a, 0])])) == r + 1
    inst.pivots = StarPivots(vertices, positions, words)
    with pytest.raises(CheckFailure, match=re.escape(
            f"vertex {vertices[a]} has pivot positions {positions[a].tolist()}, "
            "not an information set")):
        inst.rank


@pytest.mark.parametrize("name", ["z17", "q19"])
def test_star_rank_rejects_a_pivot_edge_into_i(name, q19_psl_graph):
    """A receiver joins I, with a valid information set of its own: the
    first vertex of I with a pivot edge to it is named."""
    inst = (z17_torus_instance() if name == "z17"
            else build_parity_check(q19_psl_graph, CyclicCode(20, 0b10001)))
    vertices, positions, words = inst.pivots
    adj = inst.graph.adj
    a = len(vertices) // 3
    u = int(adj[vertices[a], positions[a, 0]])
    assert u not in vertices.tolist()
    first = next(int(v) for v, p in zip(vertices, positions) if u in adj[v, p])
    inst.pivots = StarPivots(np.append(vertices, u), np.vstack([positions, positions[a]]),
                             np.vstack([words, words[a]]))
    with pytest.raises(CheckFailure, match=f"vertex {first} has a pivot edge into I"):
        inst.rank


def test_star_rank_rejects_a_vertex_listed_twice():
    inst = z17_torus_instance()
    vertices, positions, words = inst.pivots
    inst.pivots = StarPivots(np.append(vertices, vertices[0]),
                             np.vstack([positions, positions[0]]),
                             np.vstack([words, words[0]]))
    with pytest.raises(CheckFailure, match=f"vertex {vertices[0]} is listed twice in I"):
        inst.rank


def test_run_verification_never_packs_h(q19_psl_gens, q19_psl_graph, packed):
    spec = spectra.spectrum(q19_psl_gens.group, q19_psl_gens.elements)
    report, inst = run_verification(q19_psl_gens, q19_psl_graph, spec, CyclicCode(20, 0b10001))
    assert report.bounds["rank"] == inst.rank == 13566 and report.all_passed
    assert packed == []
