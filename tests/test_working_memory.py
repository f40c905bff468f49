"""Working memory of the build stages: beyond its inputs and outputs,
each stage holds scratch of bounded size (chunks, blocks and int32
index arrays), not arrays of |V| x degree int64 entries."""

import tracemalloc

import numpy as np
import pytest

from cayleycodes import alist, build_generators, choose_ideal, cli, graphs, spectra, tanner
from cayleycodes.cyclic import CyclicCode

# tracemalloc peaks of the stages of a q = 19 PSL [20,16] build (MB,
# measured with numpy 2.4: 1.89, 0.42, 1.43 with the pivots, 0.61 and
# 0.32), plus about 25% (export_edges: 14%, see below); the files go to
# a sink block by block, as build writes them
BOUNDS = {"closure": 2.4, "symmetry": 0.55, "star_rank": 1.8, "export_edges": 0.7,
          "dumps_alist": 0.4}


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
    elimination with its pivots, graph.edges and code.alist each peak
    under BOUNDS above where they started (|V| x degree = 68400; one
    int64 array of that size is 0.55 MB).  With int64 temporaries of
    that size they peaked at 4.1, 2.9 (the edge orbit alone), 4.2, 3.1
    and 4.1 MB.  Since then: the symmetry certificate took 2.49 MB with
    |E|-long edge permutations, 1.15 MB with |V| x degree path tables
    and one Schreier generator per vertex and map, and 0.81 MB with the
    star maps checked on all flags at once; star elimination took 2.17
    MB (0.68 MB the pivots) with per-vertex lists of pivots, the
    information-set check as one |I| x r x (degree - r) tensor and the
    residual summed in one key array; the writers took 1.10 and 2.40 MB
    with whole-file buffers and whole tables, code.alist 1.25 MB with
    the row numbers of its sort keys made in one array, and 1.17 MB when
    it transposed a CSR pair of H by one sort (its lines now come from
    the flags and the dual words, a block of vertices at a time).
    graph.edges took 0.56 MB when it read the canonical flags from a
    stored |E| x 2 table; it now finds them per block of vertices, with
    one int32 table of the position of each flag of a block (64 KB,
    kept for speed), and stays under the old bound.

    The GF(2) sum of the residual entries (_odd_entries) holds, beyond
    its blocks, the outputs (two int32 per entry before the sum, 0.55 MB
    here) and the scratch of one block: its keys and at most three int64
    arrays as long as them in the run search, 32 bytes per entry of the
    largest block (13870 entries for 256 outside vertices, 0.44 MB).
    One sorted key array for all 68400 entries, compacted in place, took
    0.83 MB with outputs sized to the 52928 entries kept."""
    graph, peak = traced(lambda: graphs.graph_from_generators(q19_psl_gens))
    peaks = {"closure": peak}
    _, peaks["symmetry"] = traced(lambda: graphs.edge_orbit(
        graph, graphs.symmetry_edge_permutations(graph, q19_psl_gens)))
    inst = tanner.build_parity_check(graph, CyclicCode(20, 0b10001))
    rank, peaks["star_rank"] = traced(lambda: tanner.star_rank(inst))
    _, peaks["export_edges"] = traced(lambda: graph.export_edges(lambda block: None))
    _, peaks["dumps_alist"] = traced(
        lambda: alist.dumps_alist(tanner.alist_tables(inst), lambda block: None))
    assert rank == 13566
    assert {name: peak for name, peak in peaks.items() if peak >= BOUNDS[name] * 10**6} == {}

    sums = []

    def odd_entries(ncols, size, blocks):
        blocks = list(blocks)                    # inputs, made before the sum
        largest = max((sum(row.size for row, _ in parts) for _, _, parts in blocks), default=0)
        out, peak = traced(lambda: summed(ncols, size, blocks))
        sums.append((size, len(blocks), largest, out[0].size, peak, 8 * size + 32 * largest))
        return out

    summed = tanner._odd_entries
    monkeypatch.setattr(tanner, "_odd_entries", odd_entries)
    assert tanner.star_rank(tanner.build_parity_check(graph, inst.inner)) == rank
    # star_rank's sum, in blocks of 256 outside vertices, then the residual's
    (size, blocks, largest, kept, peak, bound), residual = sums
    assert (size, blocks, largest, kept, bound) == (68400, 6, 13870, 52928, 991040)
    assert peak <= bound
    assert residual[:4] == (0, 1, 0, 0)


def test_star_elimination_at_q43_holds_bounded_scratch(traced, q43_psl_graph):
    """q = 43 PSL [44,40]: 39732 vertices, 874104 edges, 28315 vertices in
    I and a residual of 45668 rows with 1.75 M entries before the sum and
    1.52 M after.  Star elimination, pivots included, peaks under 29.5 MB
    above its start (measured with numpy 2.4: 23.4 MB, plus about 25%):
    the residual's int32 entries (14 MB) plus bounded scratch.  Per-vertex
    lists of pivots took 9.4 MB, and the |I| x r x (degree - r) int64
    tensor of the information-set check, one int64 key array for the whole
    residual and four live copies over the 760844 light columns in the
    contraction 52.2 MB after them."""
    inst = tanner.build_parity_check(q43_psl_graph, CyclicCode(44, 0b10001))
    rank, peak = traced(lambda: tanner.star_rank(inst))
    assert rank == 158926
    assert peak < 29.5 * 10**6


def test_alist_writer_at_q43_holds_bounded_scratch(traced, q43_psl_graph):
    """q = 43 PSL [44,40]: H is 158928 x 874104 with 1.75 M entries.  The
    alist writer makes its lines from the flags and the dual words, 256
    vertices at a time, and holds the column-degree line whole, one byte
    per edge (0.87 MB); it peaks under 1.45 MB above its start (measured
    with numpy 2.4: 1.15 MB, plus about 25%).  Transposing a CSR pair of
    H by one sort took 22.7 MB, about 12 bytes per entry."""
    inst = tanner.build_parity_check(q43_psl_graph, CyclicCode(44, 0b10001))
    _, peak = traced(lambda: alist.dumps_alist(tanner.alist_tables(inst), lambda block: None))
    assert peak < 1.45 * 10**6


def test_build_parity_check_holds_no_array(q19_psl_graph):
    """The instance is the graph, the inner code and the dual words: H
    is never held, and no array of its size lives through star
    elimination or the spectrum."""
    inst = tanner.build_parity_check(q19_psl_graph, CyclicCode(20, 0b10001))
    assert not [name for name, value in vars(inst).items() if isinstance(value, np.ndarray)]
    assert inst.dual_rows == [0b10001000100010001 << k for k in range(4)]


def test_closure_at_q43_holds_bounded_scratch(traced):
    """q = 43 PSL: 39732 vertices of degree 44, so adj and eid are 7.0 MB
    each.  The closure, which pairs the flags and checks the 2-coloring
    _CHUNK // degree vertices at a time and keeps no table of canonical
    flags, peaks under 21.5 MB above its start (measured with numpy 2.4:
    17.0 MB, plus about 25%).  With the |E| x 2 edge_canonical table and
    the flags paired over whole |V| x degree arrays it took 45.05 MB."""
    gens = build_generators(choose_ideal(43, 1, "psl"))
    graph, peak = traced(lambda: graphs.graph_from_generators(gens))
    assert (graph.n_vertices, graph.n_edges) == (39732, 874104)
    assert peak < 21.5 * 10**6


def test_graph_and_build_take_the_spectrum_before_the_closure(tmp_path, monkeypatch, capsys):
    """The spectrum needs only the generators, so graph and build compute
    it first: its blocks are freed before the closure's arrays exist,
    and the two peaks do not stack.  verify keeps its order: the closure
    first, the spectrum only once the shipped alist is the rebuilt H."""
    calls = []

    def record(module, name):
        original = getattr(module, name)

        def recorded(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, recorded)

    record(spectra, "spectrum")
    record(graphs, "graph_from_generators")
    (tmp_path / "inner.code").write_text("20 16\n11\n")
    out = tmp_path / "q19"
    assert cli.main(["graph", "--q", "19"]) == 0
    assert calls == ["spectrum", "graph_from_generators"]
    assert cli.main(["build", "--q", "19", "--inner", str(tmp_path / "inner.code"),
                     "--out", str(out)]) == 0
    assert calls[2:] == ["spectrum", "graph_from_generators"]
    assert cli.main(["verify", str(out)]) == 0
    assert calls[4:] == ["graph_from_generators", "spectrum"]
