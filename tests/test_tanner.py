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
from cayleycodes.cyclic import CyclicCode, dual_basis_rows
from cayleycodes.errors import CheckFailure, ConstructionError
from cayleycodes.gf2 import Gf2Matrix, int_rank
from cayleycodes.gf2poly import divmod_, mul, x_pow_n_minus_1
from cayleycodes.graphs import KeyIndex, edge_permutation, generate_group
from cayleycodes.tanner import (StarPivots, _locate_rows, build_parity_check,
                                measured_rate, row_orbit, edge_code_bounds,
                                require_packed_fits, residual_rank, run_verification,
                                star_pivots, verify_invariance, verify_single_orbit)

from code_reference import codeword_set_brute_force, codeword_set_from_nullspace, local_view
from gf2_reference import (contains, csr, int_span_equal, reference_echelon,
                           reference_from_supports, rows_of)
from group_reference import ZnGroup, left_translation_maps


def zn_graph(n, steps):
    return generate_group(ZnGroup(n), steps, cap=n + 1)


def toy_perms(graph, mult=None):
    """Edge permutations of the toy symmetry generators: all left
    translations, plus multiplication by `mult` (an automorphism of
    Z_n) permuting both vertices and generator positions."""
    ident = list(range(graph.degree))
    perms = [edge_permutation(graph, vm, ident) for vm in left_translation_maps(graph)]
    if mult is not None:
        n = graph.group.n
        vmap = graph.vertex_ids(mult * graph.keys % n)
        gp = KeyIndex(graph.gens).find(mult * graph.gens % n)
        perms.append(edge_permutation(graph, vmap, gp))
    return perms


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
    ids sorted, as an int64 indptr and int32 indices.  A basis of the
    dual with words of weight 4, 8 and 4 is laid out as well, and spans
    the same rows."""
    inst = z17_torus_instance()
    d = inst.dual_rows
    monkeypatch.setattr(tanner, "dual_basis_rows", lambda inner: [d[0], d[0] ^ d[2], d[1]])
    mixed = build_parity_check(inst.graph, inst.inner)
    assert [bin(w).count("1") for w in mixed.dual_rows] == [4, 8, 4]
    for h in (inst, mixed):
        eid = h.graph.eid.tolist()
        assert rows_of(h.indptr, h.indices) == [
            sorted(star[i] for i in range(h.graph.degree) if w >> i & 1)
            for star in eid for w in h.dual_rows]
        assert h.indptr.dtype == np.int64 and h.indices.dtype == np.int32
    assert mixed.rank == inst.rank == reference_echelon(mixed.matrix).rank


def test_build_parity_check_allocates_under_1_mb(q19_psl_graph):
    """H at q = 19 with [20,16] is 13680 rows of 5 edge ids, 0.4 MB as a
    CSR pair; its build, numpy's allocations included (tracemalloc counts
    them, and unlike RSS repeats exactly), peaks under 1 MB.  As lists of
    Python ints it took 3.7 MB."""
    inner = CyclicCode(20, 0b10001)
    tracemalloc.start()
    try:
        inst = build_parity_check(q19_psl_graph, inner)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.indptr.size == 13681 and inst.indices.dtype == np.int32
    assert peak < 10**6


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
    return Gf2Matrix.from_supports(inst.n, inst.indptr, perm[inst.indices])


def test_invariance_toy():
    inst = z17_torus_instance()
    perms = toy_perms(inst.graph, mult=2)
    named = {f"p{i}": p for i, p in enumerate(perms)}
    rep = verify_invariance(inst, named)
    assert rep.passed and rep.perm_names == sorted(named)
    assert rep.bad_perm is rep.bad_vertex is rep.bad_position is None
    rep.require()


def test_invariance_identity_perm_trivial():
    inst = z6_even_instance()
    ident = np.arange(inst.n, dtype=np.int64)
    rep = verify_invariance(inst, {"id": ident})
    assert rep.passed
    # degree 1 (K_2): the one star edge is paired with itself
    k2 = build_parity_check(zn_graph(2, [1]), CyclicCode(1, 1))
    assert verify_invariance(k2, {"id": np.arange(1)}).passed


def test_invariance_detects_broken_permutation():
    """Edges 0 and 1 both lie on the star of vertex 0 (the edge toward
    key 1 and toward key 2).  Swapping them keeps that star, but at the
    other endpoint of edge 0, vertex 1 (key 1), the position of edge 0
    (generator 16 = -1, position 4) now holds an edge off its star."""
    inst = z17_torus_instance()
    bad = np.arange(inst.n, dtype=np.int64)
    bad[[0, 1]] = bad[[1, 0]]  # a transposition is not a code symmetry here
    rep = verify_invariance(inst, {"bad": bad})
    assert not rep.passed
    assert (rep.bad_perm, rep.bad_vertex, rep.bad_position) == ("bad", 1, 4)
    assert inst.graph.eid[1, 4] == 0
    with pytest.raises(CheckFailure,
                       match="'bad' maps position 4 of the star of vertex 1 "):
        rep.require()
    # a map that is not a bijection fails where an image edge is hit twice
    merged = np.arange(inst.n, dtype=np.int64)
    merged[0] = 1
    rep = verify_invariance(inst, {"merged": merged})
    assert (rep.passed, rep.bad_vertex, rep.bad_position) == (False, 0, 0)


def assert_swap_in_star_rejected(inst, left, torus, v, i1, i2):
    """The torus permutation with the images of edges eid[v, i1] and
    eid[v, i2] swapped maps the star of v onto the same star, but each
    swapped edge's other endpoint now has an image edge off its image
    star: the certificate names the first of the two, and the permuted
    rows of H do leave rowspace(H)."""
    graph = inst.graph
    assert verify_invariance(inst, {"left": left, "torus": torus}).passed
    e1, e2 = graph.eid[v, i1], graph.eid[v, i2]
    bad = torus.copy()
    bad[[e1, e2]] = bad[[e2, e1]]
    rep = verify_invariance(inst, {"left": left, "torus": bad})
    assert not rep.passed and rep.bad_perm == "torus"
    ends = [(int(graph.adj[v, i]), int(graph.inv_gen[i])) for i in (i1, i2)]
    assert (rep.bad_vertex, rep.bad_position) == min(ends)
    assert inst.matrix.echelon().reduce_batch(permuted_rows(inst, bad).data).any()


def test_invariance_detects_swap_inside_one_star():
    inst = z17_torus_instance()
    perms = toy_perms(inst.graph, mult=2)
    assert_swap_in_star_rejected(inst, perms[0], perms[-1], 5, 2, 6)


def test_invariance_detects_swap_inside_one_star_q19(q19_psl_graph, q19_perms):
    inst = build_parity_check(q19_psl_graph, CyclicCode(20, 0b10001))
    assert_swap_in_star_rejected(inst, q19_perms["left_s0"], q19_perms["torus_t0"],
                                 2954, 0, 1)


def test_invariance_certificate_rejects_a_position_map_off_the_dual():
    """Z_19, S = [1, 18, 2, 17, 5, 14], the graph automorphism x -> -x:
    every star maps onto a star, by tau = (01)(23)(45).  With h = x^2+x+1
    tau does not preserve the dual of the inner code, the certificate
    fails naming vertex 0 and no position, and the reference reduction
    confirms that H is not invariant."""
    graph = zn_graph(19, [1, 18, 2, 17, 5, 14])
    inst = build_parity_check(graph, CyclicCode(6, 0b111))
    neg = toy_perms(graph, mult=18)[-1]
    rep = verify_invariance(inst, {"neg": neg})
    assert not rep.passed
    assert (rep.bad_perm, rep.bad_vertex, rep.bad_position) == ("neg", 0, None)
    with pytest.raises(CheckFailure, match="'neg' permutes the star positions of vertex 0 "
                                           "by a map that does not preserve the dual"):
        rep.require()
    ech = reference_echelon(inst.matrix)
    moved = permuted_rows(inst, neg)
    assert not all(contains(ech, row) for row in moved.data)


@given(st.integers(min_value=5, max_value=16), st.data())
@settings(deadline=None, max_examples=150)
def test_invariance_pass_implies_rows_in_span(n, data):
    """Soundness on toy Z_n instances: whenever the certificate passes a
    permutation (a left translation, a multiplication by a unit that
    fixes S, or either with two random edges swapped), every permuted
    row of H reduces to zero against the echelon form of H.  S comes in
    a random order, so a multiplication permutes the star positions by
    a random-looking tau that often breaks the cyclic dual."""
    steps = data.draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=6))
    steps = data.draw(st.permutations(sorted(steps | {n - s for s in steps})))
    graph = zn_graph(n, steps)
    factors = factor_x_pow_n_minus_1(graph.degree)
    chosen = data.draw(st.lists(st.booleans(), min_size=len(factors),
                                max_size=len(factors)))
    chosen[0] = chosen[0] and not all(chosen)  # the zero code is excluded
    h = 1
    for f, take in zip(factors, chosen):
        if take:
            h = mul(h, f)
    inst = build_parity_check(graph, CyclicCode(graph.degree, h))
    units = [u for u in range(2, n) if gcd(u, n) == 1
             and {u * s % n for s in steps} == set(steps)]
    mult = data.draw(st.sampled_from([None] + units))
    perms = toy_perms(graph, mult)
    perm = (perms[-1] if mult else data.draw(st.sampled_from(perms))).copy()
    if data.draw(st.booleans()):
        e1, e2 = data.draw(st.lists(st.integers(0, inst.n - 1), min_size=2, max_size=2))
        perm[[e1, e2]] = perm[[e2, e1]]
    rep = verify_invariance(inst, {"p": perm})
    if rep.passed:
        residual = inst.matrix.echelon().reduce_batch(permuted_rows(inst, perm).data)
        assert not residual.any()
    else:
        assert rep.bad_perm == "p" and 0 <= rep.bad_vertex < graph.n_vertices


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


def reference_row_orbit(inst, perms, start_row=0):
    """The one-support-at-a-time BFS over sorted support tuples: the
    slow reference for tanner.row_orbit."""
    plists = [perm.tolist() for perm in perms]
    start = tuple(rows_of(inst.indptr, inst.indices)[start_row])
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
    orbit = row_orbit(inst, perms, start_row)
    assert [tuple(r) for r in orbit.tolist()] == reference_row_orbit(inst, perms, start_row)


def test_row_orbit_matches_reference_toys():
    assert_orbit_matches_reference(z6_even_instance(), toy_perms(z6_even_instance().graph))
    inst = z17_torus_instance()
    for mult in (None, 2):
        for start in (0, 1, 7):
            assert_orbit_matches_reference(inst, toy_perms(inst.graph, mult), start)


def test_row_orbit_matches_reference_q19(q19_psl_graph, q19_perms):
    # the [20, 16] inner code h = (x + 1)^4 keeps the tuple BFS short
    inst = build_parity_check(q19_psl_graph, CyclicCode(20, 0b10001))
    perms = list(q19_perms.values())
    assert_orbit_matches_reference(inst, perms)
    assert_orbit_matches_reference(inst, perms[::-1], start_row=5)


def endpoint_vertices(graph, e):
    v, i = graph.edge_canonical[e]
    return int(v), int(graph.adj[v, i])


def reference_locate_row_vertex(graph, support):
    """(vertex, local mask) when the support lies in one vertex's star,
    searched row by row over the endpoint stars of its first two edges:
    the slow reference for tanner._locate_rows."""
    ends = [set(endpoint_vertices(graph, e)) for e in support[:2]]
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
    """(passed, bad_row, bad_vertex) of the per-vertex certificate, from
    the orbit rows' (vertex, local mask) pairs, None for a non-local row."""
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


def assert_single_orbit_matches_reference(inst, perms, start_row=0):
    """Every orbit row is located as by the row-by-row search, and the
    report agrees with the reference certificate."""
    orbit = row_orbit(inst, perms, start_row)
    located = [reference_locate_row_vertex(inst.graph, sup) for sup in orbit.tolist()]
    vertex, masks = _locate_rows(inst, orbit)
    assert [None if v < 0 else (v, m) for v, m in zip(vertex.tolist(), masks)] == located
    rep = verify_single_orbit(inst, perms, start_row)
    assert (rep.passed, rep.bad_row, rep.bad_vertex) == reference_single_orbit(inst, located)
    return rep


def test_single_orbit_matches_reference_q19(q19_psl_graph, q19_perms):
    """Passing and failing runs on q = 19 with the [20, 16] inner code
    agree with the row-by-row reference."""
    inst = build_parity_check(q19_psl_graph, CyclicCode(20, 0b10001))
    perms = list(q19_perms.values())
    assert assert_single_orbit_matches_reference(inst, perms[::-1], start_row=5).passed
    no_torus = [q19_perms[name] for name in q19_perms if name != "torus_t0"]
    assert assert_single_orbit_matches_reference(inst, no_torus).bad_vertex is not None


def test_single_orbit_weight_one_rows_match_reference():
    """A weight-1 row lies on both endpoint stars; the vertex it is
    credited to, and its mask there, must be the reference's choice.  No
    nonzero cyclic inner code has weight-1 dual words, so the rows are
    made by hand: one per edge, against all unit words as the local dual."""
    for n, steps, mult in ((6, [1, 5, 3], None), (17, [pow(2, i, 17) for i in range(8)], 2),
                           (40, [1, 39, 9, 31], None)):
        graph = zn_graph(n, steps)
        inst = replace(build_parity_check(graph, CyclicCode(graph.degree, 0b11)),
                       indptr=np.arange(graph.n_edges + 1),
                       indices=np.arange(graph.n_edges, dtype=np.int32),
                       dual_rows=[1 << i for i in range(graph.degree)])
        perms = toy_perms(graph, mult)
        for start in (0, 1, 2):
            assert not assert_single_orbit_matches_reference(inst, perms, start).passed
            assert_single_orbit_matches_reference(inst, perms[:1], start)


def orbit_oracle(inst, perms):
    """The global route, kept as an independent check of the local
    certificate: (rank of the raw orbit rows, whether every orbit row
    reduces to zero against the echelon form of H)."""
    orbit = Gf2Matrix.from_supports(inst.n, *csr(row_orbit(inst, perms).tolist()))
    in_span = not inst.matrix.echelon().reduce_batch(orbit.data).any()
    return orbit.echelon().rank, in_span


def test_single_orbit_toy_even_weight():
    """T trivial, inner = even-weight code: the orbit of the single
    all-ones star row under translations is exactly the row set."""
    inst = z6_even_instance()
    perms = toy_perms(inst.graph)
    orbit = row_orbit(inst, perms)
    assert len(orbit) == 6
    rep = verify_single_orbit(inst, perms)
    assert rep.passed
    assert rep.orbit_rank == rep.rank_h == 5
    # the global route agrees with the local certificate
    assert orbit_oracle(inst, perms) == (rep.rank_h, True)


def test_single_orbit_toy_torus():
    inst = z17_torus_instance()
    perms = toy_perms(inst.graph, mult=2)
    rep = verify_single_orbit(inst, perms)
    assert rep.passed
    assert rep.orbit_rank == rep.rank_h
    assert rep.bad_vertex is None and rep.bad_row is None
    assert rep.start_weight <= inst.graph.degree
    assert orbit_oracle(inst, perms) == (rep.rank_h, True)


def test_single_orbit_fails_without_torus():
    """Dropping the multiplicative generator leaves only translations:
    the orbit misses the shifted dual words and cannot span."""
    inst = z17_torus_instance()
    perms = toy_perms(inst.graph)  # translations only
    rep = verify_single_orbit(inst, perms)
    assert not rep.passed
    assert rep.orbit_rank is None
    assert rep.bad_vertex is not None and rep.bad_row is None
    orbit_rank, _ = orbit_oracle(inst, perms)
    assert orbit_rank < rep.rank_h
    with pytest.raises(CheckFailure, match=f"at vertex {rep.bad_vertex} "):
        rep.require()


def test_single_orbit_names_non_local_row():
    """A permutation that moves one edge of the starting star elsewhere
    makes an orbit row that is not vertex-local; the report names it."""
    inst = z17_torus_instance()
    perms = toy_perms(inst.graph, mult=2)
    start = rows_of(inst.indptr, inst.indices)[0]
    far = next(e for e in range(inst.n) if e not in inst.graph.eid[0].tolist()
               and not set(endpoint_vertices(inst.graph, e))
               & set(endpoint_vertices(inst.graph, start[0])))
    swap = np.arange(inst.n, dtype=np.int64)
    swap[[start[0], far]] = swap[[far, start[0]]]
    rep = assert_single_orbit_matches_reference(inst, [swap] + perms)
    assert not rep.passed and rep.orbit_rank is None
    assert rep.bad_row == 1 and rep.bad_vertex is None
    with pytest.raises(CheckFailure, match="orbit row 1 "):
        rep.require()


@given(st.integers(min_value=5, max_value=16), st.data())
@settings(deadline=None, max_examples=60)
def test_single_orbit_pass_implies_global_oracle(n, data):
    """Whenever the local certificate passes on a toy Z_n instance, the
    global route agrees: the raw orbit rows have rank(H) and every one
    of them lies in the row space of H."""
    steps = data.draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=6))
    steps = sorted(steps | {n - s for s in steps})
    graph = zn_graph(n, steps)
    deg = graph.degree
    factors = factor_x_pow_n_minus_1(deg)
    chosen = data.draw(st.lists(st.booleans(), min_size=len(factors),
                                max_size=len(factors)))
    chosen[0] = chosen[0] and not all(chosen)  # the zero code is excluded
    h = 1
    for f, take in zip(factors, chosen):
        if take:
            h = mul(h, f)
    inst = build_parity_check(graph, CyclicCode(deg, h))
    if inst.matrix.nrows == 0:
        return
    units = [u for u in range(2, n) if gcd(u, n) == 1
             and {u * s % n for s in steps} == set(steps)]
    all_perms = toy_perms(graph, mult=data.draw(st.sampled_from([None] + units)))
    keep = data.draw(st.lists(st.booleans(), min_size=len(all_perms),
                              max_size=len(all_perms)))
    perms = [p for p, k in zip(all_perms, keep) if k] or all_perms[:1]
    assert_orbit_matches_reference(inst, perms)
    rep = assert_single_orbit_matches_reference(inst, perms)
    if rep.passed:
        assert rep.orbit_rank == rep.rank_h == inst.rank
        assert orbit_oracle(inst, perms) == (rep.rank_h, True)
    else:
        assert rep.orbit_rank is None
        assert (rep.bad_vertex is None) != (rep.bad_row is None)


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
@settings(deadline=None, max_examples=150)
def test_star_rank_matches_reference(n, involution, data):
    """On toy Z_n instances (S symmetric, with or without the involution
    n/2, h any divisor of x^d - 1 short of the zero code, h = 1 leaving
    B-dual empty) the star rank is the column-at-a-time rank of H."""
    graph = draw_zn_graph(n, involution, data)
    factors = factor_x_pow_n_minus_1(graph.degree)
    chosen = data.draw(st.lists(st.booleans(), min_size=len(factors),
                                max_size=len(factors)))
    chosen[0] = chosen[0] and not all(chosen)  # the zero code is excluded
    h = 1
    for f, take in zip(factors, chosen):
        if take:
            h = mul(h, f)
    inst = build_parity_check(graph, CyclicCode(graph.degree, h))
    rank = inst.rank
    assert "matrix" not in inst.__dict__
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
    size, and caches nothing: at q = 19 H is 13680 x 34200 with [20,16]
    and 27360 x 34200 with [20,12].  Fresh instances, so that no other
    test's packed H is cached on them."""
    monkeypatch.setattr(spectra, "MATRIX_BYTES_LIMIT", 50 * 10**6)
    for inner, message in [
            (CyclicCode(20, 0b10001), r"H \(13680 x 34200\) would take 59 MB packed, "
                                      "above the 50 MB limit"),
            (inner20, r"H \(27360 x 34200\) would take 117 MB packed")]:
        inst = build_parity_check(q19_psl_graph, inner)
        with pytest.raises(ValueError, match=message):
            inst.matrix
        assert "matrix" not in inst.__dict__
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
    assert inst.rank == rank and "matrix" not in inst.__dict__
    assert shapes(packed) == want
    assert not any(light_columns(*matrix) for matrix in packed)
    assert inst.matrix.echelon().rank == rank


def test_rank_of_h_from_its_own_column_graph(q19_psl_graph):
    """Cross-check for x^4 + 1: rank H(B) = r|V| - dim C(G, B-dual), and
    every column of H has weight 2 (one residue class at each end), so
    dim C(G, B-dual) is the number of components of H's column graph on
    its r|V| rows, found here by union-find: 114 at q = 19."""
    inst = build_parity_check(q19_psl_graph, CyclicCode(20, 0b10001))
    supports = rows_of(inst.indptr, inst.indices)
    ends: list[list[int]] = [[] for _ in range(inst.n)]
    for i, sup in enumerate(supports):
        for e in sup:
            ends[e].append(i)
    assert all(len(rows) == 2 for rows in ends)
    parent = list(range(len(supports)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in ends:
        parent[find(a)] = find(b)
    components = sum(find(x) == x for x in range(len(parent)))
    assert components == 114
    assert inst.rank == len(supports) - components == 13566


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
    assert "matrix" not in inst.__dict__ and "matrix" not in other.__dict__
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
                if int_rank([columns[i] for i in c]) < r)


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
    report, inst = run_verification(q19_psl_gens, q19_psl_graph, CyclicCode(20, 0b10001))
    assert report.bounds["rank"] == inst.rank == 13566 and report.all_passed
    assert "matrix" not in inst.__dict__
    assert packed == []
