"""Working memory of the build stages: beyond its inputs and outputs,
each stage holds scratch of bounded size (chunks, blocks and int32
index arrays), not arrays of |V| x degree int64 entries."""

import tracemalloc

import pytest

from cayleycodes import alist, graphs, tanner
from cayleycodes.cyclic import CyclicCode

LIMIT = 3 * 10**6


@pytest.fixture
def traced():
    """stage(f): f() and its tracemalloc peak above the traced memory
    at its start, outputs included."""
    tracemalloc.start()

    def stage(f):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = f()
        return out, tracemalloc.get_traced_memory()[1] - start

    try:
        yield stage
    finally:
        tracemalloc.stop()


def test_build_stages_hold_bounded_scratch(traced, q19_psl_gens):
    """A q = 19 PSL [20,16] build, stage by stage: the closure, the
    symmetry certificate (the star maps and the edge orbit), star
    elimination, graph.edges and code.alist each peak under 3 MB above
    where they started (|V| x degree = 68400; one int64 array of that
    size is 0.55 MB).  With int64 temporaries of that size they peaked
    at 4.1, 2.9 (the edge orbit alone), 4.2, 3.1 and 4.1 MB.  The
    symmetry certificate peaks under 2 MB: it holds |V| x degree int32
    arrays only, and no |E|-long edge permutation (2.49 MB when the star
    maps were recovered from two of them)."""
    graph, peak = traced(lambda: graphs.graph_from_generators(q19_psl_gens))
    peaks = {"closure": peak}
    _, peaks["symmetry"] = traced(lambda: graphs.edge_orbit(
        graph, graphs.symmetry_edge_permutations(graph, q19_psl_gens)))
    inst = tanner.build_parity_check(graph, CyclicCode(20, 0b10001))
    inst.pivots
    rank, peaks["star_rank"] = traced(lambda: tanner.star_rank(inst))
    _, peaks["export_edges"] = traced(graph.export_edges)
    _, peaks["dumps_alist"] = traced(
        lambda: alist.dumps_alist(inst.indptr, inst.indices, inst.n))
    assert rank == 13566
    assert {name: peak for name, peak in peaks.items() if peak >= LIMIT} == {}
    assert peaks["symmetry"] < 2 * 10**6
