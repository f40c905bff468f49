import math

import numpy as np
import pytest

from cayleycodes.graphs import ZnGroup, generate_group
from cayleycodes.spectra import (is_ramanujan, ramanujan_bound, spectrum,
                                 spectrum_dense, spectrum_lanczos)


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
