"""Generators, triple relations and the supertraceless basis."""

import pytest

from zzsl import (
    AlgebraParams,
    GeneratorId,
    Grade,
    GradedMatrix,
    RationalRowSpace,
    generator_ids,
    generator_matrix,
    graded_bracket,
    verify_defining_relations,
    verify_representation,
)
from zzsl import algebra

from graded import homogeneous_grade


def test_matrix_unit_grades():
    assert homogeneous_grade(GradedMatrix.unit(AlgebraParams(1, 1, 1, 1), 0, 0)) == Grade(0, 0)
    P = AlgebraParams(1, 1, 1, 1)
    assert homogeneous_grade(GradedMatrix.unit(P, 1, 3)) == Grade(1, 0)
    Q = AlgebraParams(0, 1, 0, 1)
    assert homogeneous_grade(GradedMatrix.unit(Q, 1, 2)) == Grade(1, 0)
    with pytest.raises(ValueError):
        GradedMatrix.unit(P, 0, 9)


def test_generator_matrices():
    P = AlgebraParams(1, 1, 1, 1)
    assert generator_matrix(GeneratorId(1, "+"), P) == GradedMatrix.unit(P, 1, 0)
    assert generator_matrix(GeneratorId(1, "-"), P) == GradedMatrix.unit(P, 0, 1)
    with pytest.raises(ValueError):
        generator_matrix(GeneratorId(5, "+"), P)
    with pytest.raises(ValueError):
        GeneratorId(1, "x")
    for index in (1.0, True, "1"):
        with pytest.raises(ValueError):
            GeneratorId(index, "+")


def test_generator_families_and_labels():
    P = AlgebraParams(1, 1, 1, 1)
    gids = [GeneratorId(i, "+") for i in range(1, 5)]
    assert [g.family(P) for g in gids] == ["b", "bt", "f", "ft"]
    assert [g.label(P) for g in gids] == ["b1+", "bt1+", "f1+", "ft1+"]
    assert GeneratorId(3, "+").grade(P) == Grade(1, 0)
    assert len(generator_ids(P)) == 8


def test_bracket_of_raising_lowering_gives_unit():
    P = AlgebraParams(1, 1, 1, 1)
    for i in range(1, 5):
        for j in range(1, 5):
            if i == j:
                continue
            lhs = graded_bracket(
                generator_matrix(GeneratorId(i, "+"), P),
                generator_matrix(GeneratorId(j, "-"), P),
            )
            assert lhs == GradedMatrix.unit(P, i, j)


def test_unit_bracket_structure_constants():
    # closed formula: [[e_ij, e_kl]] = d_jk e_il - sign * d_il e_kj
    for P in (AlgebraParams(1, 0, 1, 0), AlgebraParams(1, 1, 1, 1)):
        for i in P.indices():
            for j in P.indices():
                dij = P.index_grade(i) + P.index_grade(j)
                eij = GradedMatrix.unit(P, i, j)
                for k in P.indices():
                    for l in P.indices():
                        dkl = P.index_grade(k) + P.index_grade(l)
                        got = graded_bracket(eij, GradedMatrix.unit(P, k, l))
                        expected = GradedMatrix.zero(P)
                        if j == k:
                            expected = expected + GradedMatrix.unit(P, i, l)
                        if i == l:
                            expected = expected - GradedMatrix.unit(P, k, j) * dij.sign(dkl)
                        assert got == expected, (i, j, k, l)


def test_defining_relations_pass():
    P = AlgebraParams(1, 1, 1, 1)
    report = verify_defining_relations(P)
    K = P.m + P.n
    assert report.passed
    assert report.checked == K**2 + 2 * K**3


def test_defining_relations_sl2_case():
    P = AlgebraParams(1, 0, 0, 0)
    assert verify_defining_relations(P).passed
    up = generator_matrix(GeneratorId(1, "+"), P)
    down = generator_matrix(GeneratorId(1, "-"), P)
    assert graded_bracket(graded_bracket(up, down), up) == up * 2


def test_single_fermion_self_bracket_vanishes():
    P = AlgebraParams(0, 0, 1, 0)
    up = generator_matrix(GeneratorId(1, "+"), P)
    assert graded_bracket(up, up).is_zero


def sl_basis(params):
    """Basis of the supertraceless subalgebra: off-diagonal units plus
    e(0,0) - (-1)**(d_i.d_i) e(i,i) for i = 1..m+n.  Size is N**2 - 1.
    """
    mats = [
        GradedMatrix.unit(params, i, j)
        for i in params.indices()
        for j in params.indices()
        if i != j
    ]
    e00 = GradedMatrix.unit(params, 0, 0)
    for i in params.operator_indices():
        d = params.index_grade(i)
        mats.append(e00 - GradedMatrix.unit(params, i, i) * (1 if d.dot(d) == 0 else -1))
    return mats


def _flatten(matrix):
    n = matrix.params.size
    return {i * n + j: c.as_fraction() for i, j, c in matrix.items()}


def sl_basis_rank(params):
    """Exact rank of the flattened sl basis over the rationals."""
    space = RationalRowSpace(params.size**2)
    for m in sl_basis(params):
        space.add(_flatten(m))
    return space.rank


def generator_closure_rank(params):
    """(rank of the bracket closure of the generators, rank of the sl basis).

    The closure is computed by repeatedly bracketing new elements against
    everything found so far until the exact rank stops growing.
    """
    space = RationalRowSpace(params.size**2)
    pool = []
    for gid in generator_ids(params):
        m = generator_matrix(gid, params)
        if space.add(_flatten(m)):
            pool.append(m)
    frontier = list(pool)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(pool):
                for x, y in ((a, b), (b, a)):
                    c = graded_bracket(x, y)
                    if not c.is_zero and space.add(_flatten(c)):
                        fresh.append(c)
                        pool.append(c)
        frontier = fresh
    return space.rank, sl_basis_rank(params)


def test_sl_basis():
    assert len(sl_basis(AlgebraParams(1, 0, 0, 0))) == 3
    P = AlgebraParams(1, 1, 1, 1)
    basis = sl_basis(P)
    assert len(basis) == P.size**2 - 1 == 24
    for m in basis:
        assert m.supertrace().is_zero
    assert sl_basis_rank(P) == 24


def test_iterated_brackets_span_sl():
    for P in (AlgebraParams(1, 0, 1, 0), AlgebraParams(0, 1, 0, 1), AlgebraParams(1, 1, 1, 1)):
        closure, sl_rank = generator_closure_rank(P)
        assert closure == sl_rank == P.size**2 - 1


def test_relation_report_json():
    report = verify_defining_relations(AlgebraParams(1, 0, 1, 0))
    data = report.to_json()
    assert data["params"] == [1, 0, 1, 0]
    assert data["checked"] == report.checked
    assert data["failures"] == []
    assert data["vacuous"] is False


@pytest.mark.parametrize("name, tag", [("rel2_terms", "rel2"), ("rel3_terms", "rel3")])
def test_relation_coefficients_are_applied_exactly(monkeypatch, name, tag):
    # an expected term of coefficient -2 in place of -1 must leave a residual
    P, honest = AlgebraParams(1, 1, 1, 1), getattr(algebra, name)
    doubled = set()

    def planted(params, i, j, k):
        terms = honest(params, i, j, k)
        if any(coeff == -1 for coeff, _ in terms):
            doubled.add((i, j, k))
        return [(2 * coeff if coeff == -1 else coeff, t) for coeff, t in terms]

    monkeypatch.setattr(algebra, name, planted)
    report = verify_defining_relations(P)
    assert doubled
    assert {(f.relation, f.indices) for f in report.failures} == {(tag, idx) for idx in doubled}
    assert not verify_representation(P, 2).passed
