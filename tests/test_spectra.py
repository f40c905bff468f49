import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycodes.graphs import ZnGroup, generate_group
from cayleycodes.spectra import (is_ramanujan, normalized_adjacency, normalized_matvec,
                                 ramanujan_bound, spectrum, spectrum_dense,
                                 spectrum_lanczos)

from spectra_reference import adjacency, reference_lanczos


def zn_graph(n, steps):
    return generate_group(ZnGroup(n), steps, cap=n + 1)


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


def test_dense_limit():
    class Fake:
        n_vertices = 4001
    with pytest.raises(ValueError):
        spectrum_dense(Fake())


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


def test_q19_psl_ramanujan_dense(q19_psl_graph):
    rep = spectrum_dense(q19_psl_graph)
    assert is_ramanujan(rep, 19)
    assert rep.lambda2 <= ramanujan_bound(19) + 1e-6
    assert abs(rep.top - 1.0) < 1e-6
    assert not rep.bipartite


def test_q19_modes_agree(q19_psl_graph):
    d = spectrum_dense(q19_psl_graph)
    it = spectrum_lanczos(q19_psl_graph, seed=0)
    assert abs(d.lambda2 - it.lambda2) < 1e-5
    assert abs(d.lambda_min - it.lambda_min) < 1e-5


def test_q19_pgl_ramanujan_iterative(q19_pgl_graph):
    rep = spectrum_lanczos(q19_pgl_graph, seed=0)
    assert rep.bipartite
    assert is_ramanujan(rep, 19)
    # bipartite symmetry of the extremes
    assert abs(rep.lambda2 + rep.lambda_min) < 1e-6


def test_spectrum_auto_mode(q19_pgl_graph):
    rep = spectrum(q19_pgl_graph, mode="auto")
    assert rep.method == "iterative"


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
# the matrix-free routes against the CSR reference, bit for bit
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
