"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime (run with -s or -rA to see them).

The headline instance (q = 4093 with its astronomically large matrix
group) is exercised through the inner code exactly; the group-side
properties are verified on the small admissible instances q = 19
(both variants) and toys.
"""

import random
import shutil
import time
from fractions import Fraction

import numpy as np
import pytest

from cayleycodes import cli, cyclic, gf2poly
from cayleycodes.cyclic import CyclicCode
from cayleycodes.errors import ConstructionError
from cayleycodes.gf2 import Gf2Matrix
from cayleycodes.graphs import edge_orbit, generate_group, symmetry_edge_permutations
from cayleycodes.quaternion import (build_generators, classify,
                                    residue_params, split_quaternion)
from cayleycodes.spectra import is_ramanujan, ramanujan_bound, spectrum
from cayleycodes.tanner import (build_parity_check, measured_rate, verify_invariance,
                                verify_single_orbit)

from field_reference import raw_mul, reference_field, split_matrices

from alist_reference import csr_tables
from code_reference import codeword_set_brute_force, codeword_set_from_nullspace
from gf2_reference import csr, cyclic_shift
from group_reference import ZnGroup
from spectra_reference import set_distance, spectrum_dense, spectrum_lanczos


def _report(num, name, t0, budget):
    elapsed = time.time() - t0
    assert elapsed <= budget, f"criterion {num} exceeded its {budget}s budget"
    print(f"CRITERION {num} ({name}): PASS  [{elapsed:.1f}s <= {budget}s]")


def test_criterion_1_inner_code_paper_instance(tmp_path, capsys):
    """bch --m 11 --a 8, doubled: length 4094, rate >= 5/8, designed
    normalized distance 140/4094 > 2 sqrt(4093)/4094, all exact."""
    t0 = time.time()
    base = tmp_path / "bch11.code"
    doubled = tmp_path / "b4094.code"
    assert cli.main(["bch", "--m", "11", "--a", "8", "-o", str(base)]) == 0
    assert cli.main(["double", str(base), "-o", str(doubled)]) == 0
    code = cyclic.load_code(doubled)
    assert code.n == 4094
    assert code.rate >= Fraction(5, 8)
    # designed distance of the BCH base carries over under doubling
    params = cyclic.designed_params(code, 139)
    assert (params.n, params.d_lower) == (4094, 140)
    delta = Fraction(140, 4094)
    # delta > 2 sqrt(q)/(q+1) == sqrt(4q)/(q+1): squared integer compare
    assert 140 * 140 > 4 * 4093
    assert delta * delta * 4094**2 > 4 * 4093
    res = cyclic.check_good_inner_code(4093, 11, 8)
    assert res.passed and res.code.h == code.h
    _report(1, "inner code, exact", t0, 60)


def test_criterion_2_bch_oracle():
    t0 = time.time()
    code = cyclic.bch_code(4, 2)
    assert (code.n, code.dim) == (15, 11)
    exact = cyclic.min_distance(code)  # full 2^11 enumeration
    assert exact.value == 3
    doubled = cyclic.double_length(code)
    assert (doubled.n, doubled.dim) == (30, 22)
    # cyclic: shift closure over the whole spanning basis
    for word in doubled.basis():
        assert doubled.contains(cyclic_shift(word, doubled.n))
    # a weight-3 codeword: the interleaved image of the minimum word
    witness = cyclic.interleave(exact.witness, 0, 15)
    assert witness.bit_count() == 3 and doubled.contains(witness)
    _report(2, "BCH oracle", t0, 5)


def test_criterion_3_ramanujan_certification(q19_psl_graph, q19_pgl_graph, q19_psl_dense):
    """The Gelfand-Graev route certifies both q = 19 variants, and its
    eigenvalues are, as a set, the nontrivial spectrum of the dense
    reference; the reference Lanczos extremes agree."""
    t0 = time.time()
    bound = ramanujan_bound(19)
    assert abs(bound - 0.435890) < 1e-6
    assert q19_psl_graph.n_vertices == 3420 and q19_psl_graph.degree == 20
    assert q19_pgl_graph.n_vertices == 6840 and q19_pgl_graph.bipartite

    for graph, dense in ((q19_psl_graph, q19_psl_dense),
                         (q19_pgl_graph, spectrum_dense(q19_pgl_graph))):
        rep = spectrum(graph.group, graph.gens)
        assert is_ramanujan(rep, 19)
        assert np.all(np.abs(dense.nontrivial) <= bound + 1e-6)
        assert set_distance(rep.eigenvalues, dense.nontrivial) < 1e-9
        lanczos = spectrum_lanczos(graph, seed=0)
        assert abs(lanczos.lambda2 - rep.lambda2) <= 1e-5
        assert abs(lanczos.lambda_min - rep.lambda_min) <= 1e-5
    _report(3, "Ramanujan certification", t0, 600)


def test_criterion_4_edge_transitivity(q19_psl_graph, q19_psl_gens):
    t0 = time.time()
    perms = symmetry_edge_permutations(q19_psl_graph, q19_psl_gens)
    orbit = edge_orbit(q19_psl_graph, perms)
    assert orbit.transitive and orbit.size == 34200 == q19_psl_graph.n_edges
    _report(4, "edge transitivity", t0, 60)


def test_criterion_5_structural_code_checks(q19_instance, q19_maps):
    t0 = time.time()
    inst = q19_instance
    assert inst.inner.n == 20 and inst.inner.rate > Fraction(1, 2)
    rate = measured_rate(inst)
    assert rate == Fraction(inst.n - inst.rank, 34200)
    assert rate >= 2 * inst.inner.rate - 1  # exact rational comparison
    # exhaustive: every vertex star and every star position of both maps
    orbit = edge_orbit(inst.graph, {"left_gamma": q19_maps["left_s0"],
                                    "torus_t0": q19_maps["torus_t0"]})
    inv = verify_invariance(inst, orbit)
    assert inv.passed and inv.perm_names == ["left_gamma", "torus_t0"]
    assert inv.bad_perm is inv.bad_vertex is inv.bad_position is None
    orbit_rep = verify_single_orbit(inst, orbit)
    assert orbit_rep.passed and orbit_rep.orbit_size == 3420 * 20
    assert orbit_rep.orbit_rank == orbit_rep.rank_h == inst.rank
    _report(5, "structural code checks", t0, 1800)


def test_criterion_6_brute_force_equivalence():
    t0 = time.time()
    graph = generate_group(ZnGroup(8), [1, 7, 4], cap=9)
    inst = build_parity_check(graph, CyclicCode(3, 0b11))
    assert graph.n_vertices <= 60 and inst.dim <= 20
    assert codeword_set_from_nullspace(inst) == codeword_set_brute_force(inst)
    _report(6, "brute-force equivalence", t0, 120)


def test_criterion_7_quaternion_splitting_invariants(q19_psl_gens, q19_psl_graph,
                                                     q19_pgl_gens, q19_pgl_graph):
    t0 = time.time()
    rng = random.Random(20260808)
    primes = (5, 7, 11, 13, 17, 19, 23)
    for _ in range(50):
        q = rng.choice(primes)
        ybar = rng.randrange(1, q - 1)
        params = residue_params(q, ybar)
        field = reference_field(params.tables)
        d, c = field.from_int(params.delta), field.from_int(params.c)
        m_alpha, m_z = split_matrices(field, params.delta, *split_quaternion(params))
        assert raw_mul(m_alpha, m_alpha) == (d, field.zero, field.zero, d)
        assert raw_mul(m_z, m_z) == (c, field.zero, field.zero, c)
        za = raw_mul(m_z, m_alpha)
        assert za == tuple(-x for x in raw_mul(m_alpha, m_z))
        gens = build_generators(params)
        s, group = gens.elements, gens.group
        assert len(np.unique(s)) == q + 1
        assert np.isin(group.inverse(s), s).all()
        assert group.identity not in s
        # classify() cross-checks the residuosity prediction against the
        # determinant class of every generator, raising on mismatch
        assert classify(gens) == params.predicted_variant
    # classification matches bipartiteness on the built graphs
    assert classify(q19_psl_gens) == "psl" and not q19_psl_graph.bipartite
    assert classify(q19_pgl_gens) == "pgl" and q19_pgl_graph.bipartite
    _report(7, "quaternion-splitting invariants", t0, 120)


@pytest.fixture(scope="module")
def built_instance_dir(tmp_path_factory, inner20):
    outdir = tmp_path_factory.mktemp("instance") / "q19psl"
    inner_file = outdir.parent / "inner20.code"
    cyclic.save_code(inner20, inner_file)
    code = cli.main([
        "build", "--q", "19", "--variant", "psl", "--inner", str(inner_file),
        "--out", str(outdir),
    ])
    assert code == 0
    return outdir


def test_criterion_8a_tampered_alist_fails_verify(built_instance_dir, tmp_path, capsys):
    t0 = time.time()
    pristine = cli.main(["verify", str(built_instance_dir)])
    assert pristine == 0
    bad = tmp_path / "tampered"
    shutil.copytree(built_instance_dir, bad)
    from cayleycodes import alist
    n, m, rows = alist.read_alist(bad / "code.alist")
    c = rows[100][0]
    rows[100][0] = (c + 1) % n if (c + 1) % n not in rows[100] else (c + 2) % n
    rows[100].sort()
    (bad / "code.alist").write_bytes(alist.dumps_alist(csr_tables(*csr(rows), n)))
    capsys.readouterr()
    tampered = cli.main(["verify", str(bad)])
    assert tampered == 1
    assert "code.alist: row 100 differs" in capsys.readouterr().err
    missing = cli.main(["verify", str(tmp_path / "nope")])
    assert missing == 2
    print(f"CRITERION 8a (tampered alist rejected): PASS  [{time.time() - t0:.1f}s]")


def test_criterion_8b_broken_generator_set_reported(q19_psl_gens):
    t0 = time.time()
    gens = q19_psl_gens
    group = gens.group
    # one element removed: no longer symmetric, refused with a report
    with pytest.raises(ConstructionError, match="not symmetric"):
        generate_group(group, gens.elements[:-1], cap=10000)
    # the validator names both failures
    import copy
    broken = copy.copy(gens)
    broken.elements = gens.elements[:-1]
    problems = broken.validate()
    assert any("q + 1" in p for p in problems)
    assert any("inverse" in p for p in problems)
    # removing a symmetric pair builds a graph of the wrong degree,
    # which the regularity expectation q + 1 catches
    s0 = gens.elements[0]
    pair_removed = [s for s in gens.elements if s not in (s0, group.inverse(s0))]
    graph = generate_group(group, pair_removed, cap=10000)
    assert graph.degree == 18 != gens.params.q + 1
    print(f"CRITERION 8b (broken generator set reported): PASS  [{time.time() - t0:.1f}s]")
