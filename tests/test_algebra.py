"""Generators, triple relations and the supertraceless basis."""

import pytest

from zzsl import (
    AlgebraParams,
    GeneratorId,
    Grade,
    GradedMatrix,
    generator_closure_rank,
    generator_ids,
    generator_matrix,
    graded_bracket,
    matrix_unit,
    sl_basis,
    sl_basis_rank,
    verify_defining_relations,
)


def test_matrix_unit_grades():
    assert matrix_unit(0, 0, AlgebraParams(1, 1, 1, 1)).homogeneous_grade() == Grade(0, 0)
    P = AlgebraParams(1, 1, 1, 1)
    assert matrix_unit(1, 3, P).homogeneous_grade() == Grade(1, 0)
    Q = AlgebraParams(0, 1, 0, 1)
    assert matrix_unit(1, 2, Q).homogeneous_grade() == Grade(1, 0)
    with pytest.raises(ValueError):
        matrix_unit(0, 9, P)


def test_generator_matrices():
    P = AlgebraParams(1, 1, 1, 1)
    assert generator_matrix(GeneratorId(1, "+"), P) == matrix_unit(1, 0, P)
    assert generator_matrix(GeneratorId(1, "-"), P) == matrix_unit(0, 1, P)
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
    assert GeneratorId(2, "+").conjugate() == GeneratorId(2, "-")
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
            assert lhs == matrix_unit(i, j, P)


def test_unit_bracket_structure_constants():
    # closed formula: [[e_ij, e_kl]] = d_jk e_il - sign * d_il e_kj
    for P in (AlgebraParams(1, 0, 1, 0), AlgebraParams(1, 1, 1, 1)):
        for i in P.indices():
            for j in P.indices():
                dij = P.index_grade(i) + P.index_grade(j)
                eij = matrix_unit(i, j, P)
                for k in P.indices():
                    for l in P.indices():
                        dkl = P.index_grade(k) + P.index_grade(l)
                        got = graded_bracket(eij, matrix_unit(k, l, P))
                        expected = GradedMatrix.zero(P)
                        if j == k:
                            expected = expected + matrix_unit(i, l, P)
                        if i == l:
                            expected = expected - matrix_unit(k, j, P) * dij.sign(dkl)
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
