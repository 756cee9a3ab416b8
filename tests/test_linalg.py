"""Exact row spaces over the rationals: rank, membership, shape checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzsl import RationalRowSpace, rational_rank


def test_rank_of_independent_rows():
    rows = [[1, 2, 0], [0, 1, 3], [0, 0, Fraction(1, 7)]]
    assert rational_rank(rows, 3) == 3


def test_dependent_and_zero_rows_do_not_grow_the_span():
    space = RationalRowSpace(4)
    assert space.add([1, 0, 2, 0])
    assert space.add([0, 3, 0, 1])
    assert not space.add([0, 0, 0, 0])
    assert not space.add([2, 3, 4, 1])  # 2*first + second
    assert not space.add([Fraction(1, 2), Fraction(-3, 2), 1, Fraction(-1, 2)])
    assert space.rank == 2
    assert space.add([0, 0, 1, 0])
    assert space.rank == 3


def test_insertion_order_with_fill_in():
    # reducing the last vector by the first row creates an entry at the
    # pivot of a row inserted later, which must then be eliminated too
    space = RationalRowSpace(3)
    assert space.add([1, 1, 0])
    assert space.add([0, 1, 1])
    assert not space.add([1, 0, -1])
    assert space.contains([1, 0, -1])
    assert not space.contains([1, 0, 1])
    assert space.rank == 2


def test_contains():
    space = RationalRowSpace(3)
    assert space.contains([0, 0, 0])
    assert not space.contains([0, 1, 0])
    space.add([0, Fraction(2, 3), 0])
    assert space.contains([0, 5, 0])
    assert not space.contains([1, 5, 0])
    assert space.rank == 1  # contains never inserts


def test_empty_width():
    space = RationalRowSpace(0)
    assert not space.add([])
    assert space.rank == 0
    assert rational_rank([], 5) == 0


def test_width_mismatch_raises():
    space = RationalRowSpace(3)
    with pytest.raises(ValueError, match="expected width 3, got 2"):
        space.add([1, 2])
    with pytest.raises(ValueError, match="expected width 3, got 4"):
        space.contains([1, 2, 3, 4])
    with pytest.raises(ValueError):
        RationalRowSpace(-1)


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
    assert rational_rank(rows, cols) == expected
    space = RationalRowSpace(cols)
    for row in rows:
        space.add(row)
    for row in rows:
        assert space.contains(row)
