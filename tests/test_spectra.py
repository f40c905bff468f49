import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycodes import build_generators, choose_ideal, spectra
from cayleycodes.errors import CheckFailure
from cayleycodes.fields import FieldTables
from cayleycodes.graphs import generate_group
from cayleycodes.projective import PglGroup
from cayleycodes.spectra import (SpectrumReport, coset_positions, coset_representatives,
                                 gelfand_graev_block, is_ramanujan, ramanujan_bound,
                                 spectrum)

from group_reference import ZnGroup
from spectra_reference import (adjacency, gelfand_graev_matrix, normalized_adjacency,
                               normalized_matvec, reference_lanczos, set_distance,
                               spectrum_dense, spectrum_lanczos)


def zn_graph(n, steps):
    return generate_group(ZnGroup(n), steps, cap=n + 1)


def generator_keys(q, e, variant):
    """The PGL_2 key arithmetic and the generator keys, without a closure."""
    gens = build_generators(choose_ideal(q, e, variant))
    return gens.group, gens.elements


def test_cycle_c8_analytic():
    """Circulant oracle: C_8 eigenvalues are cos(2 pi k / 8); the second
    largest normalized value is cos(pi/4)."""
    g = zn_graph(8, [1, 7])
    rep = spectrum_dense(g)
    assert abs(rep.lambda2 - math.cos(math.pi / 4)) < 1e-9
    assert abs(rep.top - 1.0) < 1e-9
    assert rep.bipartite and abs(rep.bottom + 1.0) < 1e-9
    # bipartite: spectrum closed under negation
    eigs = rep.eigenvalues
    assert np.allclose(np.sort(eigs), np.sort(-eigs))
    # the degenerate bound at q = 1 is 1: trivially satisfied
    assert is_ramanujan(rep, 1)


def test_complete_graph_k4():
    g = zn_graph(4, [1, 2, 3])
    rep = spectrum_dense(g)
    assert abs(rep.lambda2 + 1 / 3) < 1e-9
    assert abs(rep.lambda_min + 1 / 3) < 1e-9


def test_memory_guard_q109(monkeypatch):
    """q = 109 needs an 11880-square complex matrix, 2.3 GB: refused
    before the matrix (or any closure) is allocated."""
    from cayleycodes import graphs

    group, keys = generator_keys(109, 1, "psl")

    def forbidden(*args, **kwargs):
        raise AssertionError("worked past the memory guard")

    monkeypatch.setattr(graphs, "generate_group", forbidden)
    monkeypatch.setattr(spectra, "coset_representatives", forbidden)
    with pytest.raises(ValueError, match="2258 MB, above the 256 MB limit"):
        spectrum(group, keys)
    spectra.require_matrix_fits(61)   # 221 MB: still runs


def test_lanczos_matches_dense_on_toys():
    for n, steps in ((24, [1, 23, 5, 19]), (30, [1, 29, 6, 24])):
        g = zn_graph(n, steps)
        d = spectrum_dense(g)
        it = spectrum_lanczos(g, seed=3)
        assert abs(d.lambda2 - it.lambda2) < 1e-8
        assert abs(d.lambda_min - it.lambda_min) < 1e-8


def test_lanczos_degenerate_spectrum():
    # complete graph: the deflated operator is -1/3 times the identity,
    # so Lanczos terminates after one step with the right extremes
    g = zn_graph(4, [1, 2, 3])
    it = spectrum_lanczos(g, seed=0)
    assert abs(it.lambda2 + 1 / 3) < 1e-9
    assert abs(it.lambda_min + 1 / 3) < 1e-9


def test_q19_psl_ramanujan_dense(q19_psl_dense):
    rep = q19_psl_dense
    assert is_ramanujan(rep, 19)
    assert rep.lambda2 <= ramanujan_bound(19) + 1e-6
    assert abs(rep.top - 1.0) < 1e-6
    assert not rep.bipartite


def test_q19_modes_agree(q19_psl_graph, q19_psl_dense):
    it = spectrum_lanczos(q19_psl_graph, seed=0)
    gg = spectrum(q19_psl_graph.group, q19_psl_graph.gens)
    for rep in (it, gg):
        assert abs(q19_psl_dense.lambda2 - rep.lambda2) < 1e-5
        assert abs(q19_psl_dense.lambda_min - rep.lambda_min) < 1e-5


def test_q19_pgl_ramanujan_iterative(q19_pgl_graph):
    rep = spectrum_lanczos(q19_pgl_graph, seed=0)
    assert rep.bipartite
    assert is_ramanujan(rep, 19)
    # bipartite symmetry of the extremes
    assert abs(rep.lambda2 + rep.lambda_min) < 1e-6
    assert is_ramanujan(spectrum(q19_pgl_graph.group, q19_pgl_graph.gens), 19)


def test_spectrum_method_is_gelfand_graev(q19_pgl_graph):
    rep = spectrum(q19_pgl_graph.group, q19_pgl_graph.gens)
    assert rep.method == "gelfand-graev" and rep.iterations is None
    assert len(rep.eigenvalues) == 19 * 19 - 1
    # the spectrum of a bipartite graph is symmetric about 0
    assert np.allclose(rep.eigenvalues, -rep.eigenvalues[::-1], atol=1e-9)


def test_lanczos_deterministic(q19_pgl_graph):
    a = spectrum_lanczos(q19_pgl_graph, seed=5)
    b = spectrum_lanczos(q19_pgl_graph, seed=5)
    assert a.lambda2 == b.lambda2 and a.lambda_min == b.lambda_min


def test_negative_control_fails_ramanujan():
    """A 4-regular circulant on a long cycle is a bad expander: lambda2
    is near 1, far above the 4-regular bound, and the certificate says
    no."""
    g = zn_graph(60, [1, 59, 2, 58])
    rep = spectrum_dense(g)
    assert g.degree == 4
    assert rep.lambda2 > ramanujan_bound(3)
    assert not is_ramanujan(rep, 3)


# ---------------------------------------------------------------------------
# the Gelfand-Graev route against the reference routes
# ---------------------------------------------------------------------------

def test_cosets_factor_every_vertex(q19_pgl_graph, q5e2_psl_graph):
    """Each group element g is u_x g_i for the coset index i and the x
    that coset_positions reads off (all of PGL_2(19), and PSL_2(25));
    the representatives are their own cosets with x = 0."""
    for graph in (q19_pgl_graph, q5e2_psl_graph):
        group, order = graph.group, graph.group.tables.order
        reps = coset_representatives(group)
        assert len(np.unique(reps)) == len(reps) == order * order - 1
        index, x = coset_positions(group, reps)
        assert np.array_equal(index, np.arange(len(reps))) and not x.any()
        index, x = coset_positions(group, graph.keys)
        u_x = group.canonical_key(np.ones_like(x), x, np.zeros_like(x), np.ones_like(x))
        assert np.array_equal(group.mul(u_x, reps[index]), graph.keys)


def test_gelfand_graev_equals_dense_q19_psl(q19_psl_graph, q19_psl_dense):
    rep = spectrum(q19_psl_graph.group, q19_psl_graph.gens)
    assert set_distance(rep.eigenvalues, q19_psl_dense.nontrivial) < 1e-9
    assert is_ramanujan(rep, 19)


def test_gelfand_graev_extremes_match_lanczos_q5e2(q5e2_psl_graph):
    rep = spectrum(q5e2_psl_graph.group, q5e2_psl_graph.gens)
    ref = spectrum_lanczos(q5e2_psl_graph, seed=0)
    assert abs(rep.lambda2 - ref.lambda2) < 1e-9
    assert abs(rep.lambda_min - ref.lambda_min) < 1e-9
    assert is_ramanujan(rep, 5)


def test_q7e2_certifies_without_closure(monkeypatch):
    """58800 vertices, never built: lambda2 = 0.660138 against the bound
    0.661438, the tightest instance at hand."""
    from cayleycodes import graphs

    def forbidden(*args, **kwargs):
        raise AssertionError("the spectrum built the closure")

    monkeypatch.setattr(graphs, "generate_group", forbidden)
    rep = spectrum(*generator_keys(7, 2, "psl"))
    assert abs(rep.lambda2 - 0.660138) < 1e-6
    assert is_ramanujan(rep, 7)


def test_trivial_character_fails(monkeypatch, q19_psl_graph):
    """psi = 1 induces the trivial representation back in: the eigenvalue
    1 appears and the certificate refuses."""
    monkeypatch.setattr(spectra, "additive_character", lambda p: np.ones(p, dtype=complex))
    with pytest.raises(CheckFailure, match=r"eigenvalue 0\.99999.* within 1e-06 of \+-1"):
        spectrum(q19_psl_graph.group, q19_psl_graph.gens)


def square_determinant_cosets(group):
    order = group.tables.order
    index = np.arange(order * order - 1)
    det = np.where(index < order * (order - 1), index // order + 1,
                   index - order * (order - 1) + 1)
    return group.tables.log[det] % 2 == 0


def test_mackey_split_of_the_coset_basis(q19_psl_graph, q19_pgl_graph):
    """PSL generators keep the determinant class of a coset, so M is block
    diagonal (Ind_U^PSL psi + Ind_U^PSL psi_eps); PGL generators swap
    the classes."""
    for graph, keeps in ((q19_psl_graph, True), (q19_pgl_graph, False)):
        m = gelfand_graev_matrix(graph.group, graph.gens)
        square = square_determinant_cosets(graph.group)
        same, other = m[np.ix_(square, square)], m[np.ix_(square, ~square)]
        assert not (other if keeps else same).any() and (same if keeps else other).any()


def unipotent_psl13():
    """PSL_2(13) with u_{+-1} and their transposes: the two halves of M
    are not isospectral (test_square_determinant_cosets_lose_eigenvalues)."""
    group = PglGroup(FieldTables(13))
    one = np.ones(4, dtype=np.int64)
    return group, group.canonical_key(one, np.array([1, 12, 0, 0]), np.array([0, 0, 1, 12]), one)


def test_square_determinant_cosets_lose_eigenvalues():
    """Keeping only Ind_U^PSL psi (the cosets of square determinant) drops
    the representation that is generic only for psi_eps.  On PSL_2(13)
    with the unipotent generators u_{+-1} and their transposes, that
    loses eigenvalues of the dense reference; the whole matrix has them
    all.  The paper's graphs cannot show it, since their two halves are
    isospectral: for Q = 3 mod 4 they are complex conjugates; for e = 1
    the torus-orbit S is fixed by conjugation with t0, which lies outside
    PSL and so swaps the halves; and at q = 5, e = 2 it was observed."""
    group, gens = unipotent_psl13()
    ref = spectrum_dense(generate_group(group, gens, cap=2000)).nontrivial
    m = gelfand_graev_matrix(group, gens)
    square = square_determinant_cosets(group)
    half = np.linalg.eigvalsh(m[np.ix_(square, square)]) / len(gens)
    assert set_distance(half, ref) > 1e-2
    assert set_distance(spectrum(group, gens).eigenvalues, ref) < 1e-9


@pytest.mark.parametrize("instance", [(19, 1, "psl"), (19, 1, "pgl"), (5, 2, "psl"),
                                      (5, 2, "pgl"), "psl13-unipotent"], ids=str)
def test_blocks_reproduce_the_whole_matrix(instance):
    """The determinant-class blocks give eigvalsh of all of M, with its
    multiplicities: two diagonal blocks for PSL generators, +- the
    singular values of the off-diagonal block for PGL generators; so
    the block route and the whole-matrix route report the same bytes."""
    group, gens = (unipotent_psl13() if instance == "psl13-unipotent"
                   else generator_keys(*instance))
    want = np.linalg.eigvalsh(gelfand_graev_matrix(group, gens)) / len(gens)
    rep = spectrum(group, gens)
    got = rep.eigenvalues
    assert len(got) == len(want) == group.tables.order ** 2 - 1
    assert np.abs(np.sort(got) - want).max() < 1e-9
    # and the rounded extremes are the whole matrix's, to the bit
    full = SpectrumReport(rep.method, rep.tolerance, float(want[-1]), float(want[0]), want)
    assert (rep.lambda2, rep.lambda_min) == (full.lambda2, full.lambda_min)


def test_spectrum_refuses_mixed_determinant_classes(q19_psl_graph, q19_pgl_graph):
    """The union of the PSL and the PGL generator sets is symmetric, but
    neither keeps nor swaps the determinant class of every coset."""
    gens = np.concatenate([q19_psl_graph.gens, q19_pgl_graph.gens])
    with pytest.raises(CheckFailure, match="mixes determinant classes: 20 square, 20 nonsquare"):
        spectrum(q19_psl_graph.group, gens)


def test_block_refuses_a_product_outside_its_columns(q19_psl_graph):
    """PSL generators keep the class, so the square-to-nonsquare block
    has no entry to hold: every product lands outside its columns."""
    group, gens = q19_psl_graph.group, q19_psl_graph.gens
    reps = coset_representatives(group)
    square = group.in_psl(reps)
    with pytest.raises(IndexError):
        gelfand_graev_block(group, gens, reps, np.flatnonzero(square), np.flatnonzero(~square))


def test_spectrum_never_allocates_the_whole_matrix():
    """At q = 5, e = 2, M is 624-square, 6.2 MB complex: the traced peak
    inside spectrum stays under half of that, as a block is a quarter."""
    group, gens = generator_keys(5, 2, "psl")
    whole = 16 * (25 * 25 - 1) ** 2
    tracemalloc.start()
    try:
        spectrum(group, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole / 2


@pytest.mark.parametrize("lambda2,lambda_min", [
    (0.4162186543260412, -0.4000000000000009),
    (0.4162186543260414, -0.39999999999999997),
])
def test_extremes_rounded_outward_to_the_grid(lambda2, lambda_min):
    """Last-bit differences (two BLAS thread counts at q = 19) vanish, an
    extreme exactly on the grid (-0.4) lands on one side, and both move
    outward."""
    rep = SpectrumReport("gelfand-graev", 1e-6, lambda2, lambda_min, np.array([]))
    assert (rep.lambda2, rep.lambda_min) == (0.4162186544, -0.4000000001)
    assert rep.lambda2 > lambda2 and rep.lambda_min < lambda_min


def test_spectrum_rejects_broken_generators(q19_psl_graph):
    group, gens = q19_psl_graph.group, q19_psl_graph.gens
    with pytest.raises(CheckFailure, match="not closed under inverses"):
        spectrum(group, gens[:-1])
    # the unipotent pair u_1, u_-1 generates U only: a disconnected graph
    one, minus_one = 1, group.tables.neg(1)
    unipotent = group.canonical_key(np.ones(2, dtype=np.int64), np.array([one, minus_one]),
                                    np.zeros(2, dtype=np.int64), np.ones(2, dtype=np.int64))
    with pytest.raises(CheckFailure, match="do not generate"):
        spectrum(group, unipotent)


# ---------------------------------------------------------------------------
# the matrix-free reference routes against the CSR reference, bit for bit
# ---------------------------------------------------------------------------

def assert_matvec_matches_csr(graph, vectors):
    a = adjacency(graph) / graph.degree
    matvec = normalized_matvec(graph)
    for x in vectors:
        assert np.array_equal(matvec(x), a @ x)


@given(st.integers(min_value=3, max_value=60), st.data())
@settings(deadline=None, max_examples=40)
def test_matvec_and_dense_match_csr_on_random_zn(n, data):
    steps = data.draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=8))
    graph = zn_graph(n, sorted(steps | {n - s for s in steps}))
    seed = data.draw(st.integers(0, 2**32 - 1))
    vectors = np.random.default_rng(seed).standard_normal((5, graph.n_vertices))
    vectors[0, ::2] = 0.0      # exact zeros among the inputs
    assert_matvec_matches_csr(graph, vectors)
    assert np.array_equal(normalized_adjacency(graph),
                          adjacency(graph).toarray() / graph.degree)


def test_matvec_matches_csr_on_group_graphs(q19_psl_graph, q5e2_psl_graph):
    rng = np.random.default_rng(7)
    for graph in (q19_psl_graph, q5e2_psl_graph):
        assert_matvec_matches_csr(graph, rng.standard_normal((20, graph.n_vertices)))
    assert np.array_equal(normalized_adjacency(q19_psl_graph),
                          adjacency(q19_psl_graph).toarray() / q19_psl_graph.degree)


def assert_lanczos_matches_reference(graph, seed):
    rep = spectrum_lanczos(graph, seed=seed)
    assert (rep.lambda2, rep.lambda_min, rep.iterations) == reference_lanczos(graph, seed=seed)
    return rep


def test_lanczos_matches_reference_on_group_graphs(q5e2_psl_graph, q19_pgl_graph):
    """Degree 6 and degree 20 (bipartite); both converge after 128 steps,
    so the basis grows once."""
    for graph, seed in ((q5e2_psl_graph, 0), (q19_pgl_graph, 1)):
        assert assert_lanczos_matches_reference(graph, seed).iterations == 128


def test_lanczos_matches_reference_growing_to_cap():
    """The 2000-cycle converges slowly: the basis doubles from 64 columns
    past 128 and stops at the 1200-step cap."""
    assert assert_lanczos_matches_reference(zn_graph(2000, [1, 1999]), 0).iterations == 1200


def test_lanczos_matches_reference_below_initial_width():
    """29 nontrivial dimensions: the cap is below the initial 64 columns."""
    graph = zn_graph(30, [1, 29, 6, 24])
    rep = assert_lanczos_matches_reference(graph, 3)
    assert rep.iterations < graph.n_vertices - 1 < 64
