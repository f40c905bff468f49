"""Working memory of the build stages: beyond its inputs and outputs,
each stage holds scratch of bounded size (chunks, blocks and int32
index arrays), not arrays of |V| x degree int64 entries."""

import tracemalloc

import pytest

from cayleycodes import alist, graphs, tanner
from cayleycodes.cyclic import CyclicCode

# tracemalloc peaks of the stages of a q = 19 PSL [20,16] build (MB,
# measured with numpy 2.4: 1.90, 0.81, 2.03, 0.56 and 1.25), plus about
# 25%; the files go to a sink block by block, as build writes them
BOUNDS = {"closure": 2.4, "symmetry": 1.0, "star_rank": 2.5, "export_edges": 0.7,
          "dumps_alist": 1.6}


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


def test_build_stages_hold_bounded_scratch(traced, monkeypatch, q19_psl_gens):
    """A q = 19 PSL [20,16] build, stage by stage: the closure, the
    symmetry certificate (the star maps and the edge orbit), star
    elimination, graph.edges and code.alist each peak under BOUNDS
    above where they started (|V| x degree = 68400; one int64 array of
    that size is 0.55 MB).  With int64 temporaries of that size they
    peaked at 4.1, 2.9 (the edge orbit alone), 4.2, 3.1 and 4.1 MB; with
    |E|-long edge permutations the symmetry certificate took 2.49 MB,
    and with |V| x degree path tables and one Schreier generator per
    vertex and map 1.15 MB; with the np.resize below star elimination
    took 2.50 MB, and with whole-file buffers and whole tables the
    writers 1.10 and 2.40 MB.

    The GF(2) sum of the residual entries (_odd_entries) holds its sorted
    keys, the outputs, and scratch of at most two bool masks as long as
    the keys: 0.83 MB for the 68400 int32 keys and 52928 entries kept
    here.  Choosing the odd run ends by np.resize of [False, True], a
    tuple of one array reference per two keys, took it to 1.73 MB."""
    graph, peak = traced(lambda: graphs.graph_from_generators(q19_psl_gens))
    peaks = {"closure": peak}
    _, peaks["symmetry"] = traced(lambda: graphs.edge_orbit(
        graph, graphs.symmetry_edge_permutations(graph, q19_psl_gens)))
    inst = tanner.build_parity_check(graph, CyclicCode(20, 0b10001))
    inst.pivots
    rank, peaks["star_rank"] = traced(lambda: tanner.star_rank(inst))
    _, peaks["export_edges"] = traced(lambda: graph.export_edges(lambda block: None))
    _, peaks["dumps_alist"] = traced(
        lambda: alist.dumps_alist(inst.indptr, inst.indices, inst.n, lambda block: None))
    assert rank == 13566
    assert {name: peak for name, peak in peaks.items() if peak >= BOUNDS[name] * 10**6} == {}

    sums = []

    def odd_entries(nrows, ncols, size, parts):
        out, peak = traced(lambda: summed(nrows, ncols, size, parts))
        key_bytes = size * (4 if nrows * ncols < 2**31 else 8)
        sums.append((size, peak, key_bytes + 2 * size + out[0].nbytes + out[1].nbytes))
        return out

    summed = tanner._odd_entries
    monkeypatch.setattr(tanner, "_odd_entries", odd_entries)
    assert tanner.star_rank(inst) == rank
    (size, peak, bound), (left, _, _) = sums     # star_rank's sum, then the residual's
    assert (size, bound, left) == (68400, 833824, 0)
    assert peak <= bound
