"""Fock basis enumeration, ladder actions and representation verification."""

from fractions import Fraction

import pytest

from zzsl import (
    FT_CORRECTED,
    AlgebraParams,
    FockState,
    FTildeVariant,
    GeneratorId,
    RadicalSum,
    apply_generator,
    closed_form_dimension,
    dimension,
    enumerate_basis,
    ft_variant_discrimination,
    ft_variants,
    ladder_operators,
    norm_factor,
    operator_matrix,
    order_one_defining_comparison,
    single_quantum_state,
    spanning_rank,
    verify_representation,
)
from zzsl.fock import MAX_BASIS_DIMENSION


def small_sweep(total_max):
    for m1 in range(total_max + 1):
        for m2 in range(total_max + 1 - m1):
            for n1 in range(total_max + 1 - m1 - m2):
                for n2 in range(total_max + 1 - m1 - m2 - n1):
                    yield AlgebraParams(m1, m2, n1, n2)


# ------------------------------------------------------------------- basis


def test_basis_small_example():
    P = AlgebraParams(1, 0, 1, 0)
    basis = enumerate_basis(P, 1)
    assert len(basis) == 3
    assert basis.vacuum == FockState.vacuum(P)
    assert set(basis) == {
        FockState((0,), (), (0,), ()),
        FockState((1,), (), (0,), ()),
        FockState((0,), (), (1,), ()),
    }


def test_basis_thirteen_states():
    assert dimension(AlgebraParams(1, 1, 1, 1), 2) == 13


def test_basis_order_and_uniqueness():
    P = AlgebraParams(1, 1, 1, 1)
    basis = enumerate_basis(P, 3)
    keys = [(s.total, s.occupations()) for s in basis]
    assert keys == sorted(keys)
    assert len(set(basis)) == len(basis)
    assert [s for s in basis if s.total == 0] == [FockState.vacuum(P)]
    for pos, state in enumerate(basis):
        assert basis.index_of(state) == pos


def test_basis_rejects_p_zero():
    with pytest.raises(ValueError):
        enumerate_basis(AlgebraParams(1, 0, 0, 0), 0)


def test_basis_size_guard_and_bounded_cache():
    params = AlgebraParams(3, 3, 0, 0)  # closed form C(p+6, 6)
    assert closed_form_dimension(params, 4) == 210 <= MAX_BASIS_DIMENSION
    assert len(enumerate_basis(params, 4)) == 210
    assert closed_form_dimension(params, 30) > MAX_BASIS_DIMENSION
    with pytest.raises(ValueError, match=str(closed_form_dimension(params, 30))):
        enumerate_basis(params, 30)
    assert enumerate_basis.cache_info().maxsize == 256


def test_state_validation():
    with pytest.raises(ValueError):
        FockState((-1,), (), (), ())
    with pytest.raises(ValueError):
        FockState((), (), (2,), ())


def test_dimension_closed_form():
    assert dimension(AlgebraParams(0, 0, 1, 1), 2) == 4
    assert dimension(AlgebraParams(2, 0, 0, 0), 3) == 10
    for P in small_sweep(3):
        for p in (1, 2, 3):
            assert dimension(P, p) == closed_form_dimension(P, p)
        assert dimension(P, 1) == P.m + P.n + 1


def test_basis_json_uses_lambda_key():
    basis = enumerate_basis(AlgebraParams(0, 0, 1, 1), 1)
    rows = basis.to_json()
    assert rows[0] == {"index": 0, "r": [], "l": [], "theta": [0], "lambda": [0]}


# ------------------------------------------------------------- norm factors


def test_norm_factor_examples():
    P = AlgebraParams(1, 0, 0, 0)
    assert norm_factor(FockState.vacuum(P), 2) == 1
    assert norm_factor(FockState((1,), (), (), ()), 2) == RadicalSum.sqrt(2) / 2
    assert norm_factor(FockState((2,), (), (), ()), 2) == Fraction(1, 2)
    with pytest.raises(ValueError):
        norm_factor(FockState((2,), (), (), ()), 1)


# ------------------------------------------------------------------ actions


def test_lowering_kills_vacuum():
    P = AlgebraParams(1, 1, 1, 1)
    vac = FockState.vacuum(P)
    for i in range(1, 5):
        assert apply_generator(GeneratorId(i, "-"), vac, 2) == []


def test_f_raising_sign_example():
    state = FockState((0,), (1,), (0,), (0,))
    out = apply_generator(GeneratorId(3, "+"), state, 2)
    assert out == [(RadicalSum(-1), FockState((0,), (1,), (1,), (0,)))]


def test_pauli_factor():
    state = FockState((0,), (0,), (1,), (0,))
    assert apply_generator(GeneratorId(3, "+"), state, 2) == []


def test_unnormalized_lowering_coefficient():
    state = FockState((2,), (), (), ())
    out = apply_generator(GeneratorId(1, "-"), state, 3, "unnormalized")
    assert out == [(RadicalSum(4), FockState((1,), (), (), ()))]


def test_unnormalized_raising_drops_at_cap():
    P = AlgebraParams(1, 0, 0, 0)
    full = FockState((3,), (), (), ())
    assert apply_generator(GeneratorId(1, "+"), full, 3, "unnormalized") == []
    below = FockState((2,), (), (), ())
    out = apply_generator(GeneratorId(1, "+"), below, 3, "unnormalized")
    assert out == [(RadicalSum(1), full)]


def test_apply_rejects_bad_input():
    with pytest.raises(ValueError):
        apply_generator(GeneratorId(1, "+"), FockState((5,), (), (), ()), 2)
    with pytest.raises(ValueError):
        apply_generator(
            GeneratorId(1, "+"), FockState.vacuum(AlgebraParams(1, 0, 0, 0)), 2, "bogus"
        )
    with pytest.raises(ValueError):
        apply_generator(
            GeneratorId(1, "+"),
            FockState.vacuum(AlgebraParams(0, 0, 1, 1)),
            2,
            "unnormalized",
            FTildeVariant("theta", "lambda"),
        )


# ----------------------------------------------------------------- matrices


def test_operator_matrix_single_entry():
    P = AlgebraParams(1, 0, 1, 0)
    basis = enumerate_basis(P, 1)
    op = operator_matrix(GeneratorId(1, "+"), P, 1)
    row = basis.index_of(FockState((1,), (), (0,), ()))
    assert op.items() == [(row, 0, RadicalSum(1))]


def test_raising_is_strictly_grading_increasing():
    P = AlgebraParams(1, 1, 1, 1)
    basis = enumerate_basis(P, 2)
    for i in range(1, 5):
        op = operator_matrix(GeneratorId(i, "+"), P, 2)
        for row, col, _ in op.items():
            assert basis.states[row].total == basis.states[col].total + 1


def test_transpose_structure():
    P = AlgebraParams(1, 1, 1, 1)
    for i in range(1, 5):
        up = operator_matrix(GeneratorId(i, "+"), P, 2)
        down = operator_matrix(GeneratorId(i, "-"), P, 2)
        assert up.nnz == down.nnz
        assert up.transpose() == down


def test_operator_degree_shift():
    P = AlgebraParams(1, 1, 1, 1)
    basis = enumerate_basis(P, 2)
    for i in range(1, 5):
        d = P.index_grade(i)
        for sign in "+-":
            op = operator_matrix(GeneratorId(i, sign), P, 2)
            for row, col, _ in op.items():
                assert basis.states[row].degree(P) == basis.states[col].degree(P) + d


def test_nilpotency():
    P = AlgebraParams(1, 1, 1, 1)
    p = 2
    for i in range(1, 5):
        up = operator_matrix(GeneratorId(i, "+"), P, p)
        if i in (3, 4):
            assert (up @ up).is_zero
        assert (up ** (p + 1)).is_zero


def test_quotient_consistency():
    # conjugating the integer matrices by the norm-factor diagonal gives the
    # orthonormal matrices entry by entry
    for P, p in ((AlgebraParams(1, 1, 1, 1), 2), (AlgebraParams(1, 0, 1, 0), 3)):
        basis = enumerate_basis(P, p)
        factors = [norm_factor(s, p) for s in basis]
        for i in range(1, P.m + P.n + 1):
            for sign in "+-":
                gid = GeneratorId(i, sign)
                ortho = operator_matrix(gid, P, p, "orthonormal")
                plain = operator_matrix(gid, P, p, "unnormalized")
                assert ortho.nnz == plain.nnz
                for row, col, coeff in plain.items():
                    expected = factors[col] * coeff * factors[row].reciprocal()
                    assert ortho.entry(row, col) == expected


def test_number_operator_identity():
    # [[a_i-, a_i+]] + (-1)**(d.d) * diag(occ_i) == diag(p - R) for every i
    P = AlgebraParams(1, 1, 1, 1)
    p = 2
    basis = enumerate_basis(P, p)
    plus, minus = ladder_operators(P, p)
    for i in range(1, 5):
        bracket = minus[i - 1].graded_bracket(plus[i - 1])
        assert bracket.is_diagonal
        d = P.index_grade(i)
        sign = 1 if d.dot(d) == 0 else -1
        for pos, state in enumerate(basis):
            value = bracket.entry(pos, pos) + RadicalSum(sign * state.occupation(i, P))
            assert value == p - state.total


# ------------------------------------------------------------- verification


def test_verify_representation_passes():
    report = verify_representation(AlgebraParams(1, 1, 1, 1), 2)
    assert report.passed
    labels = {s.label for s in report.suites}
    assert labels == {
        "relations-orthonormal",
        "vacuum-orthonormal",
        "relations-unnormalized",
        "vacuum-unnormalized",
        "adjointness",
        "spanning",
    }
    assert report.suite("relations-orthonormal").checked == 16 + 2 * 64


def test_verify_classical_subcase():
    # n2 = m2 = 0 reduces to the ordinary superalgebra Fock module
    assert verify_representation(AlgebraParams(2, 0, 2, 0), 2).passed


def test_spanning_rank_equals_dimension():
    for P, p in ((AlgebraParams(1, 1, 1, 1), 2), (AlgebraParams(0, 2, 1, 1), 3)):
        rank, dim = spanning_rank(P, p)
        assert rank == dim == dimension(P, p)


def test_order_one_matches_defining_matrices():
    for P in (AlgebraParams(1, 1, 1, 1), AlgebraParams(2, 1, 0, 1), AlgebraParams(0, 0, 2, 1)):
        assert order_one_defining_comparison(P)


def test_variant_discrimination():
    report = ft_variant_discrimination(AlgebraParams(1, 1, 1, 1), 2)
    assert report.corrected_only_passes
    assert report.outcomes[0].variant == FT_CORRECTED.label
    assert report.outcomes[0].passed
    literal = report.outcome("ft+->theta,ft-->theta")
    assert not literal.passed
    assert literal.relation_failure is not None
    assert literal.relation_failure["relation"].startswith("rel")
    assert len(ft_variants()) == 4


def test_variant_requires_tilde_orbital():
    # without any f-tilde orbital all four variants coincide and pass
    report = ft_variant_discrimination(AlgebraParams(1, 1, 1, 0), 2)
    assert all(o.passed for o in report.outcomes)


def test_single_quantum_state_layout():
    P = AlgebraParams(1, 1, 1, 1)
    assert single_quantum_state(P, 1) == FockState((1,), (0,), (0,), (0,))
    assert single_quantum_state(P, 4) == FockState((0,), (0,), (0,), (1,))
    with pytest.raises(ValueError):
        single_quantum_state(P, 5)


def test_operator_json_format():
    P = AlgebraParams(1, 0, 1, 0)
    op = operator_matrix(GeneratorId(1, "+"), P, 1)
    data = op.to_json()
    assert data["params"] == [1, 0, 1, 0]
    assert data["p"] == 1
    assert data["shape"] == [3, 3]
    assert data["entries"] == [{"row": 2, "col": 0, "coeff": [
        {"num": "1", "den": "1", "radicand": "1"}
    ]}]
