"""Shared fixtures: the q = 19 instances are expensive enough to build
once per session and reuse across test modules."""

import pytest

from cayleycodes import build_generators, choose_ideal
from cayleycodes.cyclic import CyclicCode
from cayleycodes.gf2 import Gf2Matrix
from cayleycodes.gf2poly import mul
from cayleycodes.graphs import graph_from_generators, symmetry_edge_permutations
from cayleycodes.tanner import build_parity_check


@pytest.fixture(scope="session")
def q19_psl_gens():
    return build_generators(choose_ideal(19, 1, "psl"))


@pytest.fixture(scope="session")
def q19_psl_graph(q19_psl_gens):
    return graph_from_generators(q19_psl_gens)


@pytest.fixture(scope="session")
def q19_psl_objects(q19_psl_graph):
    """The q19 PSL vertices as ProjectiveMatrix objects, and their ids."""
    from group_reference import object_vertices
    return object_vertices(q19_psl_graph)


@pytest.fixture(scope="session")
def q19_psl_dense(q19_psl_graph):
    """The dense reference spectrum of the q19 PSL graph."""
    from spectra_reference import spectrum_dense
    return spectrum_dense(q19_psl_graph)


@pytest.fixture(scope="session")
def q19_pgl_gens():
    return build_generators(choose_ideal(19, 1, "pgl"))


@pytest.fixture(scope="session")
def q19_pgl_graph(q19_pgl_gens):
    return graph_from_generators(q19_pgl_gens)


@pytest.fixture(scope="session")
def q5e2_psl_gens():
    return build_generators(choose_ideal(5, 2, "psl"))


@pytest.fixture(scope="session")
def q5e2_psl_graph(q5e2_psl_gens):
    return graph_from_generators(q5e2_psl_gens)


@pytest.fixture(scope="session")
def q43_psl_graph():
    return graph_from_generators(build_generators(choose_ideal(43, 1, "psl")))


@pytest.fixture(scope="session")
def inner20():
    # [20, 12] cyclic code: h = (x + 1)^4 (x^4 + x^3 + x^2 + x + 1)
    return CyclicCode(20, mul(0b10001, 0b11111))


@pytest.fixture(scope="session")
def q19_instance(q19_psl_graph, inner20):
    inst = build_parity_check(q19_psl_graph, inner20)
    inst.rank  # star elimination, once
    return inst


@pytest.fixture(scope="session")
def q19_maps(q19_psl_graph, q19_psl_gens):
    """The star maps (u, tau) of left_s0 and torus_t0 at q = 19 PSL."""
    return symmetry_edge_permutations(q19_psl_graph, q19_psl_gens)


@pytest.fixture(scope="session")
def q19_edge_perms(q19_psl_graph, q19_maps):
    """The edge permutations the q19 star maps induce, for the oracles."""
    from group_reference import edge_permutation
    return {name: edge_permutation(q19_psl_graph, *m) for name, m in q19_maps.items()}


@pytest.fixture
def packed(monkeypatch):
    """(ncols, rows) of every matrix Gf2Matrix.from_supports packs
    while the test runs, each row a list of column indices."""
    from gf2_reference import rows_of
    matrices, original = [], Gf2Matrix.from_supports.__func__

    def from_supports(cls, ncols, indptr, indices):
        matrices.append((ncols, rows_of(indptr, indices)))
        return original(cls, ncols, indptr, indices)

    monkeypatch.setattr(Gf2Matrix, "from_supports", classmethod(from_supports))
    return matrices
