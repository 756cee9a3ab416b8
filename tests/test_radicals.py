"""Exact radical arithmetic: canonical forms, algebra laws, display."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzsl import RadicalSum, normalize_radical


def _is_squarefree(n: int) -> bool:
    # independent check: no square divisor above 1
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def test_normalize_examples():
    assert normalize_radical(8) == (2, 2)
    assert normalize_radical(1) == (1, 1)
    assert normalize_radical(360) == (6, 10)
    assert normalize_radical(0) == (1, 0)


def test_normalize_rejects_negative():
    with pytest.raises(ValueError):
        normalize_radical(-4)


def test_normalize_sweep():
    for n in range(10_001):
        outer, sf = normalize_radical(n)
        assert outer * outer * sf == n
        if n > 0:
            assert sf >= 1 and _is_squarefree(sf)


def test_sqrt_products():
    s2 = RadicalSum.sqrt(2)
    assert s2 * s2 == 2
    assert RadicalSum.sqrt(6) * RadicalSum.sqrt(10) == RadicalSum.sqrt(15) * 2


def test_like_term_merge():
    half_s3 = RadicalSum.sqrt(3) / 2
    assert half_s3 + half_s3 == RadicalSum.sqrt(3)


def test_sqrt_fraction_clears_denominator():
    value = RadicalSum.sqrt_fraction(Fraction(1, 2))
    assert value.terms() == {2: Fraction(1, 2)}
    # (1/2)sqrt(2) squared is 1/2
    assert value * value == Fraction(1, 2)


def test_zero_and_equality():
    zero = RadicalSum()
    assert zero.is_zero
    assert RadicalSum(3) + zero == 3
    assert RadicalSum.sqrt(2) != RadicalSum.sqrt(3)
    assert RadicalSum(Fraction(4, 2)) == 2


def test_reject_floats():
    with pytest.raises(TypeError):
        RadicalSum(0.5)


def test_radicands_are_ints_and_coefficients_exact():
    # a float radicand must not slip in as "2.0", not even after sqrt(2) is cached
    assert RadicalSum.sqrt(2).to_json() == [{"num": "1", "den": "1", "radicand": "2"}]
    for bad in (2.0, True, Fraction(2)):
        with pytest.raises(TypeError, match="radicand must be an int"):
            RadicalSum.sqrt(bad)
        with pytest.raises(TypeError, match="radicand must be an int"):
            RadicalSum.from_terms({bad: 1})
        with pytest.raises(TypeError, match="radicand must be an int"):
            normalize_radical(bad)
    with pytest.raises(TypeError):
        RadicalSum.sqrt_fraction(0.5)
    with pytest.raises(TypeError):
        RadicalSum.from_terms({2: 0.5})
    assert RadicalSum.sqrt_fraction(Fraction(1, 2)) == RadicalSum.sqrt(2) / 2
    assert RadicalSum.from_terms({8: Fraction(1, 2)}) == RadicalSum.sqrt(2)


def test_reciprocal():
    value = RadicalSum.sqrt(2) * Fraction(3, 4)
    assert value * value.reciprocal() == 1
    with pytest.raises(ValueError):
        (RadicalSum(1) + RadicalSum.sqrt(2)).reciprocal()
    with pytest.raises(ZeroDivisionError):
        RadicalSum().reciprocal()


def test_as_fraction():
    assert RadicalSum(Fraction(5, 3)).as_fraction() == Fraction(5, 3)
    assert RadicalSum().as_fraction() == 0
    assert type(RadicalSum(2).as_fraction()) is Fraction
    with pytest.raises(ValueError):
        RadicalSum.sqrt(2).as_fraction()


def test_to_float_examples():
    assert RadicalSum.sqrt(2).to_float(5) == "1.4142"
    assert (RadicalSum.sqrt(15) * 2).to_float(6) == "7.74597"
    assert RadicalSum().to_float(3) == "0"
    with pytest.raises(ValueError):
        RadicalSum.sqrt(2).to_float(0)


def test_to_float_against_high_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    values = [
        RadicalSum.sqrt(2),
        RadicalSum.sqrt(3) * Fraction(-7, 5) + RadicalSum(Fraction(22, 7)),
        RadicalSum.sqrt(30) * 11 + RadicalSum.sqrt(2) * Fraction(1, 3),
    ]
    for value in values:
        for digits in (3, 8, 15):
            reference = mpmath.mpf(0)
            for s, q in value.terms().items():
                reference += mpmath.mpf(q.numerator) / q.denominator * mpmath.sqrt(s)
            got = value.to_float(digits)
            assert abs(mpmath.mpf(got) - reference) <= abs(reference) * mpmath.mpf(10) ** (
                1 - digits
            )


def test_json_round_trip():
    value = RadicalSum.sqrt(8) * Fraction(-3, 2) + RadicalSum(Fraction(1, 7))
    data = value.to_json()
    assert all(set(term) == {"num", "den", "radicand"} for term in data)
    radicands = [int(term["radicand"]) for term in data]
    assert radicands == sorted(radicands)
    assert RadicalSum.from_json(data) == value
    assert RadicalSum().to_json() == []


def _coefficient_types(value: RadicalSum) -> set[type]:
    return {type(q) for q in value.terms().values()}


def test_integral_fraction_and_int_agree():
    pairs = [
        (RadicalSum(Fraction(4, 2)), RadicalSum(2)),
        (RadicalSum.from_terms({8: Fraction(3, 3)}), RadicalSum.sqrt(2) * 2),
        (RadicalSum.sqrt(3) / 2 * 2, RadicalSum.sqrt(3)),
        (RadicalSum(Fraction(1, 3)).reciprocal(), RadicalSum(3)),
        (RadicalSum(Fraction(1, 2)) + RadicalSum(Fraction(1, 2)), RadicalSum(1)),
        (RadicalSum.sqrt_fraction(Fraction(1, 2)) * RadicalSum.sqrt(2), RadicalSum(1)),
    ]
    for a, b in pairs:
        assert a == b
        assert hash(a) == hash(b)
        assert a.to_json() == b.to_json()
        assert str(a) == str(b)
        assert _coefficient_types(a) == _coefficient_types(b) == {int}
    assert RadicalSum(Fraction(4, 2)) == Fraction(2) == 2
    assert hash(RadicalSum(Fraction(4, 2))) == hash(Fraction(2)) == hash(2)
    assert _coefficient_types(RadicalSum.sqrt(2) / 4) == {Fraction}


# -- randomized algebra laws ------------------------------------------------

_squarefree_pool = [1, 2, 3, 5, 6, 7, 10, 11, 13, 15, 21, 30]

_coeffs = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
).filter(lambda q: q != 0)

_radical_sums = st.lists(
    st.tuples(st.sampled_from(_squarefree_pool), _coeffs),
    min_size=0,
    max_size=4,
).map(RadicalSum.from_terms)


@settings(max_examples=200)
@given(_radical_sums, _radical_sums, _radical_sums)
def test_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)


@settings(max_examples=100)
@given(_radical_sums)
def test_identity_laws(x):
    assert x + RadicalSum() == x
    assert x * RadicalSum(1) == x
    assert x - x == RadicalSum()
    assert x * RadicalSum() == RadicalSum()


@settings(max_examples=100)
@given(_radical_sums)
def test_canonical_radicands(x):
    for s, q in x.terms().items():
        assert s >= 1 and _is_squarefree(s)
        assert q != 0
        # integral coefficients are stored as int, all others as Fraction
        assert type(q) is (int if q.denominator == 1 else Fraction)


@settings(max_examples=100, deadline=None)
@given(_radical_sums, _radical_sums)
def test_arithmetic_against_sympy(x, y):
    sympy = pytest.importorskip("sympy")

    def to_sympy(value):
        return sum(
            (sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(s)
             for s, q in value.terms().items()),
            sympy.Integer(0),
        )

    def from_sympy(expr):
        terms = {}
        for base, coeff in sympy.expand(expr).as_coefficients_dict().items():
            if coeff:
                terms[int(base**2)] = Fraction(int(coeff.p), int(coeff.q))
        return terms

    for got, expr in ((x + y, to_sympy(x) + to_sympy(y)), (x * y, to_sympy(x) * to_sympy(y))):
        assert got.terms() == from_sympy(expr)
        for q in got.terms().values():
            assert type(q) is (int if q.denominator == 1 else Fraction)
