import copy

import numpy as np
import pytest

from cayleycodes.errors import ConstructionError
from cayleycodes.quaternion import (build_generators, choose_ideal, classify,
                                    expected_group_order, residue_params,
                                    residue_params_ext, split_quaternion)

import field_reference as ref

SMALL_ODD_PRIMES = (5, 7, 11, 13, 17, 19, 23)


def _qr(q, x):
    return pow(x, (q - 1) // 2, q) == 1


def test_choose_ideal_q19():
    """The scan picks the smallest admissible ybar; cross-check against
    an exhaustive residue table."""

    def first_ybar(want_qr):
        for yb in range(1, 18):
            img = (yb * pow(1 + yb, 17, 19)) % 19
            if _qr(19, img) == want_qr:
                return yb

    assert choose_ideal(19, 1, "psl").ybar == first_ybar(True) == 2
    assert choose_ideal(19, 1, "pgl").ybar == first_ybar(False) == 1


def test_choose_ideal_rejects_small_residue_field():
    with pytest.raises(ValueError):
        choose_ideal(5, 1, "psl")
    with pytest.raises(ValueError):
        choose_ideal(17, 1, "pgl")


def test_choose_ideal_degree_two():
    params = choose_ideal(5, 2, "psl")
    assert params.e == 2 and params.tables.order == 25
    assert params.tables.is_square(params.residue_class)
    # the scan found the irreducible of smallest encoding: x^2 + 2
    assert params.residue_poly == (2, 0, 1)
    assert params.ybar == 5  # the class of y, coefficients (0, 1)
    pgl = choose_ideal(5, 2, "pgl")
    assert not pgl.tables.is_square(pgl.residue_class)


@pytest.mark.parametrize("q,e", [(19, 1), (23, 1), (5, 2), (7, 2), (3, 3)])
@pytest.mark.parametrize("want", ["psl", "pgl"])
def test_choose_ideal_matches_object_scan(q, e, want):
    params = choose_ideal(q, e, want)
    f, delta, ybar = ref.reference_choose_ideal(q, e, want)
    assert (tuple(params.residue_poly), params.delta) == (tuple(f), delta)
    assert params.tables.digits(params.ybar) == ybar


def test_residue_params_validation():
    with pytest.raises(ConstructionError):
        residue_params(19, 0)
    with pytest.raises(ConstructionError):
        residue_params(19, 18)   # ybar = -1
    with pytest.raises(ConstructionError):
        residue_params(15, 2)    # not prime
    with pytest.raises(ConstructionError):
        residue_params(2, 1)     # even
    with pytest.raises(ValueError, match="not a nonsquare"):
        residue_params(19, 2, delta=4)
    # a root at -1 (or 0) makes f reducible: x^2 + 3x + 2 = (x + 1)(x + 2)
    with pytest.raises(ConstructionError, match="reducible"):
        residue_params_ext(5, (2, 3, 1))
    with pytest.raises(ConstructionError, match="reducible"):
        residue_params_ext(5, (0, 1, 1))
    with pytest.raises(ValueError, match="degree 1"):
        residue_params_ext(5, (2, 1))


def assert_split_relations(params, u, v):
    """The defining relations on the reference objects, from (u, v)."""
    field = ref.reference_field(params.tables)
    d, c = field.from_int(params.delta), field.from_int(params.c)
    m_alpha, m_z = ref.split_matrices(field, params.delta, u, v)
    assert ref.raw_mul(m_alpha, m_alpha) == (d, field.zero, field.zero, d)
    assert ref.raw_mul(m_z, m_z) == (c, field.zero, field.zero, c)
    za, az = ref.raw_mul(m_z, m_alpha), ref.raw_mul(m_alpha, m_z)
    assert za == tuple(-x for x in az)


def test_split_relations_exact():
    """The three defining relations, verified on objects across every
    admissible (q, ybar)."""
    for q in SMALL_ODD_PRIMES:
        for yb in range(1, q - 1):
            params = residue_params(q, yb)
            assert_split_relations(params, *split_quaternion(params))
    for want in ("psl", "pgl"):
        params = choose_ideal(5, 2, want)
        assert_split_relations(params, *split_quaternion(params))


def test_split_example_q19():
    # ybar = 1: c = 2; the scan hits v = 1, u = 2 and M_z = [[2, -2], [1, -2]]
    params = residue_params(19, 1)
    assert split_quaternion(params) == (2, 1)
    _, m_z = ref.split_matrices(ref.reference_field(params.tables), params.delta, 2, 1)
    assert [x.encode() for x in m_z] == [2, 17, 1, 17]


def test_generator_set_properties_sweep():
    for q in SMALL_ODD_PRIMES:
        for yb in (1, 2, q - 2):
            gens = build_generators(residue_params(q, yb))
            s, group = gens.elements, gens.group
            assert len(np.unique(s)) == q + 1
            assert np.isin(group.inverse(s), s).all()
            assert group.identity not in s
            assert classify(gens) == gens.params.predicted_variant


REFERENCE_CASES = ([(q, 1, yb) for q in (3,) + SMALL_ODD_PRIMES for yb in range(1, q - 1)]
                   + [(q, 2, want) for q in (5, 7) for want in ("psl", "pgl")])


@pytest.mark.parametrize("q,e,arg", REFERENCE_CASES, ids=lambda v: str(v))
def test_build_generators_matches_object_reference(q, e, arg):
    """gamma, t0, the torus and S in order, key for key, against the
    object build with the torus over F_q embedded into F_{q^e}."""
    params = residue_params(q, arg) if e == 1 else choose_ideal(q, e, arg)
    t = params.tables
    obj = ref.reference_generators(q, e, params.residue_poly, params.delta,
                                   t.digits(params.ybar))
    assert split_quaternion(params) == (obj.u.encode(), obj.v.encode())
    gens = build_generators(params)
    assert gens.gamma == ref.matrix_key(obj.gamma)
    assert gens.t0 == ref.matrix_key(obj.t0_embedded)
    assert gens.torus.tolist() == [ref.matrix_key(x.matrix.embed(obj.field))
                                   for x in obj.torus]
    assert gens.elements.tolist() == [ref.matrix_key(s) for s in obj.elements]
    assert [ref.decode(gens.group, s).is_in_psl() for s in gens.elements] == \
        [s.is_in_psl() for s in obj.elements]


def test_generator_ordering_is_torus_shift(q19_psl_gens):
    """s_i = t0^i gamma t0^-i, so conjugation by t0 shifts the index by
    one; this is the convention the inner code's coordinates rely on."""
    gens = q19_psl_gens
    group, t0 = gens.group, gens.t0
    assert gens.elements[0] == gens.gamma
    shifted = group.mul(group.mul(t0, gens.elements), group.inverse(t0))
    assert np.array_equal(shifted, np.roll(gens.elements, -1))


def test_gamma_determinant_identity():
    """det(I + c^-1 M_z) = ybar/(1 + ybar) up to squares: the canonical
    form's determinant lands in the same residue class."""
    for q in (13, 19, 23):
        for yb in (1, 3):
            params = residue_params(q, yb)
            gens = build_generators(params)
            assert gens.group.in_psl(gens.gamma) == params.tables.is_square(
                params.residue_class)


def test_classification_matches_graph_bipartiteness(q19_psl_graph, q19_pgl_graph):
    assert not q19_psl_graph.bipartite
    assert q19_pgl_graph.bipartite


def test_expected_group_order():
    assert expected_group_order(19, 1, "psl") == 3420
    assert expected_group_order(19, 1, "pgl") == 6840
    assert expected_group_order(5, 2, "psl") == 7800


def test_validate_reports_missing_inverse(q19_psl_gens):
    gens = copy.copy(q19_psl_gens)
    gens.elements = q19_psl_gens.elements[:-1]
    problems = gens.validate()
    assert problems and any("q + 1" in p for p in problems)
    assert any("inverse" in p for p in problems)
