"""Exact row spaces over the rationals (rank, membership, shape checks) and
the shared sparse-matrix kernel: signed merge, index checks, grade rule."""

import copy
import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzsl import (
    AlgebraParams,
    Grade,
    GradedMatrix,
    RadicalSum,
    RationalRowSpace,
    SparseOperator,
    enumerate_basis,
    graded_bracket,
    ladder_operators,
    matrix_unit,
    rational_rank,
)


def _contains(space, vector) -> bool:
    """Span membership: adding the vector to a copy of the space leaves it unchanged."""
    return not copy.deepcopy(space).add(vector)


def test_rank_of_independent_rows():
    rows = [{0: 1, 1: 2}, {1: 1, 2: 3}, {2: Fraction(1, 7)}]
    assert rational_rank(rows, 3) == 3


def test_dependent_and_zero_rows_do_not_grow_the_span():
    space = RationalRowSpace(4)
    assert space.add({0: 1, 2: 2})
    assert space.add({1: 3, 3: 1})
    assert not space.add({})
    assert not space.add({0: 0, 3: 0})  # explicit zeros are ignored
    assert not space.add({0: 2, 1: 3, 2: 4, 3: 1})  # 2*first + second
    assert not space.add({0: Fraction(1, 2), 1: Fraction(-3, 2), 2: 1, 3: Fraction(-1, 2)})
    assert space.rank == 2
    assert space.add({2: 1})
    assert space.rank == 3


def test_insertion_order_with_fill_in():
    # reducing the last vector by the first row creates an entry at the
    # pivot of a row inserted later, which must then be eliminated too
    space = RationalRowSpace(3)
    assert space.add({0: 1, 1: 1})
    assert space.add({1: 1, 2: 1})
    assert not space.add({0: 1, 2: -1})
    assert _contains(space, {0: 1, 2: -1})
    assert not _contains(space, {0: 1, 2: 1})
    assert space.rank == 2


def test_contains():
    space = RationalRowSpace(3)
    assert _contains(space, {})
    assert not _contains(space, {1: 1})
    space.add({1: Fraction(2, 3)})
    assert _contains(space, {1: 5})
    assert not _contains(space, {0: 1, 1: 5})
    assert space.rank == 1  # membership checks never insert


def test_empty_width():
    space = RationalRowSpace(0)
    assert not space.add({})
    assert space.rank == 0
    assert rational_rank([], 5) == 0


def test_width_mismatch_raises():
    # a column outside [0, width) is the sparse form of a wrong-length vector
    space = RationalRowSpace(3)
    with pytest.raises(ValueError, match="column 3 outside width 3"):
        space.add({0: 1, 3: 2})
    with pytest.raises(ValueError, match="column -1 outside width 3"):
        _contains(space, {-1: 1})
    with pytest.raises(ValueError, match="column 0 outside width 0"):
        RationalRowSpace(0).add({0: 0})
    assert space.rank == 0
    with pytest.raises(ValueError):
        RationalRowSpace(-1)


def test_subtraction_is_one_signed_merge(monkeypatch):
    # a - b, commutators and graded brackets never build a negated copy
    P = AlgebraParams(1, 1, 1, 1)
    plus, minus = ladder_operators(P, 2)

    def refuse(self):
        raise AssertionError("RadicalSum.__neg__ was called")

    monkeypatch.setattr(RadicalSum, "__neg__", refuse)
    for up in plus:
        for down in minus:
            expected = up @ down + (down @ up) * -1
            assert up.commutator(down) == expected
            assert up.commutator(down).grade == expected.grade
    a, b = matrix_unit(0, 1, P), matrix_unit(1, 0, P)
    assert (a * 3) - a == a * 2  # overlapping entries
    assert a - b == GradedMatrix(P, {(0, 1): 1, (1, 0): -1})  # disjoint entries
    assert (a - a).is_zero
    for k in P.operator_indices():
        d = P.index_grade(k)
        lhs = graded_bracket(matrix_unit(0, k, P), matrix_unit(k, 0, P))
        sign = -1 if d.dot(d) == 0 else 1
        assert lhs == matrix_unit(0, 0, P) + matrix_unit(k, k, P) * sign
    mixed = a + matrix_unit(3, 0, P)  # grades (0,0) and (1,0)
    expected = GradedMatrix(P, {(0, 0): 1, (3, 3): 1, (0, 1): 0})
    assert graded_bracket(mixed, matrix_unit(0, 3, P)) == expected


def test_entries_and_scalars_must_be_exact():
    P = AlgebraParams(1, 0, 0, 0)
    with pytest.raises(TypeError, match="matrix entries must be exact scalars, got float"):
        GradedMatrix(P, {(0, 1): 0.5})
    with pytest.raises(TypeError):
        matrix_unit(0, 1, P) * 0.5
    assert matrix_unit(0, 1, P) * Fraction(1, 2) == GradedMatrix(P, {(0, 1): Fraction(1, 2)})


def test_indices_must_be_ints():
    P = AlgebraParams(1, 0, 1, 0)
    basis = enumerate_basis(P, 1)
    for bad in [(True, 0), (0, False), (0, 1.0), (Fraction(1), 0)]:
        with pytest.raises(TypeError, match="matrix indices must be integers"):
            GradedMatrix(P, {bad: 1})
        with pytest.raises(TypeError, match="matrix indices must be integers"):
            SparseOperator(basis, {bad: 1})
    assert GradedMatrix(P, {(1, 0): 1}).to_json()["entries"][0]["row"] == 1


def test_declared_grades_propagate_and_sums_of_two_grades_drop_them():
    P = AlgebraParams(1, 1, 1, 1)
    plus, minus = ladder_operators(P, 2)
    b, f = plus[0], plus[2]  # grades (0,0) and (1,0)
    assert (b.grade, f.grade) == (Grade(0, 0), Grade(1, 0))
    assert (b @ f).grade == (f + f).grade == (-f).grade == (f * 3).grade == Grade(1, 0)
    assert f.transpose().grade == Grade(1, 0)
    mixed, other = b + f, minus[1] + minus[3]  # grades (1,1) and (0,1) in other
    assert mixed.grade is other.grade is None
    with pytest.raises(ValueError, match="not homogeneous"):
        mixed.homogeneous_grade()
    # graded entry by entry, the sums split back into the ladder operators
    expected = [graded_bracket(x, y) for x in (b, f) for y in (minus[1], minus[3])]
    assert graded_bracket(mixed, other) == sum(expected[1:], expected[0])
    assert graded_bracket(mixed, minus[3]) == expected[1] + expected[3]


def test_brackets_leave_no_reference_cycles():
    P = AlgebraParams(1, 1, 1, 1)
    plus, minus = ladder_operators(P, 2)
    unit = matrix_unit(0, 3, P)
    gc.collect()
    gc.disable()
    try:
        results = []
        for up in plus:
            for down in minus:
                inner = graded_bracket(up, down)
                results.append(graded_bracket(inner, up))
                inner.homogeneous_grade()
        mixed = matrix_unit(0, 1, P) + matrix_unit(3, 0, P)
        results.append(graded_bracket(graded_bracket(mixed, unit), mixed))
        del results, inner, mixed
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_integral_entries_are_stored_as_int():
    from zzsl.grading import _BracketTable

    P = AlgebraParams(1, 1, 1, 1)
    assert matrix_unit(0, 2, P)._entries == {(0, 2): 1}
    assert type(matrix_unit(0, 2, P)._entries[0, 2]) is int
    plus, minus = ladder_operators(P, 3, "unnormalized")
    for op in plus + minus:
        assert op.nnz and {type(c) for c in op._entries.values()} == {int}
    # sqrt(1), sqrt(4) on the orthonormal basis are ints; sqrt(2), sqrt(3) are not
    coeffs = [c for op in ladder_operators(P, 3)[0] for c in op._entries.values()]
    assert {type(c) for c in coeffs} == {int, RadicalSum}
    assert all(type(c) is int or c.terms().keys() != {1} for c in coeffs)
    # a constructed entry is canonicalised; radical arithmetic may leave an
    # integral RadicalSum, which must behave exactly like its int
    assert type(GradedMatrix(P, {(0, 0): RadicalSum(Fraction(4, 2))})._entries[0, 0]) is int
    a = GradedMatrix(P, {(0, 1): RadicalSum.sqrt(2)})
    b = GradedMatrix(P, {(1, 0): RadicalSum.sqrt(2)})
    radical, plain = a @ b, GradedMatrix(P, {(0, 0): 2})
    assert type(radical._entries[0, 0]) is RadicalSum and type(plain._entries[0, 0]) is int
    assert radical == plain and plain == radical
    assert hash(frozenset(radical._entries.items())) == hash(frozenset(plain._entries.items()))
    table = _BracketTable(P)
    assert table.intern(radical) == table.intern(plain) == 1
    assert radical.entry(0, 0) == plain.entry(0, 0) == RadicalSum(2)
    assert type(plain.entry(0, 0)) is RadicalSum and type(plain.entry(1, 1)) is RadicalSum
    assert radical.items() == plain.items()
    assert radical.to_json() == plain.to_json()
    assert (radical - plain).is_zero
    with pytest.raises(TypeError, match="got float"):
        GradedMatrix(P, {(0, 0): 2.0})


_small = st.integers(min_value=-2, max_value=2)


@settings(max_examples=60, deadline=None)
@given(st.lists(_small, min_size=9, max_size=9), st.lists(_small, min_size=9, max_size=9),
       st.booleans())
def test_product_matches_dense_reference(a, b, one_column):
    # 3x3 matrices of (1,0,1,0); with one_column, b keeps only column 0 (a vector)
    P = AlgebraParams(1, 0, 1, 0)
    if one_column:
        b = [x if pos % 3 == 0 else 0 for pos, x in enumerate(b)]
    A = GradedMatrix(P, {(i, j): a[3 * i + j] for i in range(3) for j in range(3)})
    B = GradedMatrix(P, {(i, j): b[3 * i + j] for i in range(3) for j in range(3)})
    dense = {
        (i, j): sum(a[3 * i + k] * b[3 * k + j] for k in range(3))
        for i in range(3) for j in range(3)
    }
    assert A @ B == GradedMatrix(P, dense)


_entries = st.one_of(
    st.just(0),
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


@st.composite
def _matrices(draw):
    rows = draw(st.integers(min_value=0, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    row = st.lists(_entries, min_size=cols, max_size=cols)
    return cols, draw(st.lists(row, min_size=rows, max_size=rows))


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_rank_against_sympy(shape_and_rows):
    sympy = pytest.importorskip("sympy")
    cols, rows = shape_and_rows
    expected = sympy.Matrix(rows).rank() if rows else 0
    maps = [dict(enumerate(row)) for row in rows]  # zero entries included
    assert rational_rank(maps, cols) == expected
    space = RationalRowSpace(cols)
    for row in maps:
        space.add(row)
    for row in maps:
        assert _contains(space, row)
