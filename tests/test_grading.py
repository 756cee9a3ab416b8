"""Degree arithmetic, graded brackets, supertrace and the bracket axioms."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzsl import grading
from zzsl import (
    GRADES,
    AlgebraParams,
    Grade,
    GradedMatrix,
    RadicalSum,
    axiom_report,
    graded_bracket,
    ladder_operators,
    matrix_unit,
)
from zzsl.fock import BASIS_KINDS

from graded import homogeneous_grade


def _identity(P):
    return GradedMatrix(P, {(i, i): 1 for i in P.indices()})


def _decompose(matrix):
    """The four block-homogeneous components, zeros included, split entry by
    entry by the degree index_grade(i) + index_grade(j)."""
    P = matrix.params
    parts = {g: {} for g in GRADES}
    for i, j, c in matrix.items():
        parts[P.index_grade(i) + P.index_grade(j)][(i, j)] = c
    return {g: GradedMatrix(P, e) for g, e in parts.items()}


def _jacobi_residual(x, y, z):
    """[[x,[y,z]]] - [[[x,y],z]] - (-1)**(a.b) [[y,[x,z]]] for homogeneous inputs.

    The identity holds iff the result is the zero matrix.  Zero inputs are
    accepted with any grade, which leaves the residual zero regardless of
    the sign chosen.
    """
    a = homogeneous_grade(x)
    b = homogeneous_grade(y)
    homogeneous_grade(z)  # enforce the precondition on z as well
    sign = a.sign(b) if a is not None and b is not None else 1
    term1 = graded_bracket(x, graded_bracket(y, z))
    term2 = graded_bracket(graded_bracket(x, y), z)
    term3 = graded_bracket(y, graded_bracket(x, z))
    result = term1 - term2
    return result - term3 if sign == 1 else result + term3


def test_grade_ops():
    assert Grade(1, 0) + Grade(0, 1) == Grade(1, 1)
    assert Grade(1, 0).dot(Grade(0, 1)) == 0
    assert Grade(1, 1) + Grade(1, 1) == Grade(0, 0)
    assert Grade(1, 1).dot(Grade(1, 1)) == 0
    assert Grade(1, 0) + Grade(1, 1) == Grade(0, 1)
    assert Grade(1, 0).dot(Grade(1, 1)) == 1
    with pytest.raises(ValueError):
        Grade(2, 0)


def test_index_grade():
    P = AlgebraParams(1, 1, 1, 1)
    assert P.index_grade(0) == Grade(0, 0)
    assert P.index_grade(1) == Grade(0, 0)
    assert P.index_grade(2) == Grade(1, 1)
    assert P.index_grade(3) == Grade(1, 0)
    assert P.index_grade(4) == Grade(0, 1)
    with pytest.raises(ValueError):
        P.index_grade(5)
    with pytest.raises(ValueError):
        P.index_grade(-1)


def test_params_validation():
    with pytest.raises(ValueError):
        AlgebraParams(-1, 0, 0, 0)
    assert AlgebraParams.from_string("2, 1, 0, 3") == AlgebraParams(2, 1, 0, 3)
    with pytest.raises(ValueError):
        AlgebraParams.from_string("1,2,3")
    with pytest.raises(ValueError):
        AlgebraParams(True, 0, 1, 0)
    with pytest.raises(ValueError):
        AlgebraParams(1, 0, False, 0)


def _assert_components_match(matrix):
    # the kernel's component split is the nonzero part of the entrywise one
    expected = [(g, m) for g, m in _decompose(matrix).items() if not m.is_zero]
    assert matrix._components() == sorted(expected, key=lambda kv: kv[0].as_tuple())


def test_decompose_zero_and_identity():
    P = AlgebraParams(1, 1, 1, 1)
    zero = GradedMatrix.zero(P)
    parts = _decompose(zero)
    assert set(parts) == set(GRADES)
    assert all(m.is_zero for m in parts.values())
    _assert_components_match(zero)
    assert homogeneous_grade(zero) is None

    identity = _identity(P)
    parts = _decompose(identity)
    assert not parts[Grade(0, 0)].is_zero
    for g in GRADES[1:]:
        assert parts[g].is_zero
    _assert_components_match(identity)
    assert homogeneous_grade(identity) == Grade(0, 0)


def test_decompose_unit_and_sum():
    P = AlgebraParams(1, 0, 1, 0)
    e02 = matrix_unit(0, 2, P)
    parts = _decompose(e02)
    assert parts[Grade(1, 0)] == e02
    _assert_components_match(e02)
    assert homogeneous_grade(e02) == Grade(1, 0)

    mixed = e02 + matrix_unit(1, 1, P)
    parts = _decompose(mixed)
    total = GradedMatrix.zero(P)
    for part in parts.values():
        total = total + part
    assert total == mixed
    _assert_components_match(mixed)
    assert len(mixed._components()) == 2
    with pytest.raises(ValueError):
        homogeneous_grade(mixed)


def test_bracket_matches_annihilation_creation_formula():
    P = AlgebraParams(1, 1, 1, 1)
    e00 = matrix_unit(0, 0, P)
    for k in range(1, 5):
        d = P.index_grade(k)
        lhs = graded_bracket(matrix_unit(0, k, P), matrix_unit(k, 0, P))
        rhs = e00 - matrix_unit(k, k, P) * (1 if d.dot(d) == 0 else -1)
        assert lhs == rhs


def test_bracket_even_self_commutes():
    P = AlgebraParams(1, 1, 0, 0)
    x = matrix_unit(0, 1, P) + matrix_unit(1, 0, P)
    assert homogeneous_grade(x) == Grade(0, 0)
    assert graded_bracket(x, x).is_zero


def test_bracket_anticommutator_case():
    P = AlgebraParams(1, 0, 1, 0)
    lhs = graded_bracket(matrix_unit(2, 0, P), matrix_unit(0, 2, P))
    assert lhs == matrix_unit(2, 2, P) + matrix_unit(0, 0, P)


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        graded_bracket(
            matrix_unit(0, 0, AlgebraParams(1, 0, 0, 0)),
            matrix_unit(0, 0, AlgebraParams(0, 1, 0, 0)),
        )


def test_supertrace():
    P = AlgebraParams(1, 1, 1, 1)
    assert _identity(P).supertrace() == 1
    assert matrix_unit(0, 0, P).supertrace() == 1
    assert matrix_unit(P.m + 1, P.m + 1, P).supertrace() == RadicalSum(-1)


def test_jacobi_exhaustive_small():
    P = AlgebraParams(1, 0, 1, 0)
    units = [matrix_unit(i, j, P) for i in P.indices() for j in P.indices()]
    for x in units:
        for y in units:
            for z in units:
                assert _jacobi_residual(x, y, z).is_zero


def test_jacobi_spot_cases():
    P = AlgebraParams(1, 0, 1, 0)
    e00 = matrix_unit(0, 0, P)
    assert _jacobi_residual(e00, e00, e00).is_zero
    assert _jacobi_residual(
        matrix_unit(0, 1, P), matrix_unit(1, 0, P), matrix_unit(0, 2, P)
    ).is_zero


def test_jacobi_rejects_non_homogeneous():
    P = AlgebraParams(1, 0, 1, 0)
    mixed = matrix_unit(0, 2, P) + matrix_unit(1, 1, P)
    with pytest.raises(ValueError):
        _jacobi_residual(mixed, mixed, mixed)


def test_jacobi_random_triples_larger_algebra():
    P = AlgebraParams(2, 1, 1, 1)
    units = [matrix_unit(i, j, P) for i in P.indices() for j in P.indices()]
    rng = random.Random(20240817)
    for _ in range(1000):
        x, y, z = (rng.choice(units) for _ in range(3))
        assert _jacobi_residual(x, y, z).is_zero


def test_symmetry_and_grading_and_supertrace_of_brackets():
    P = AlgebraParams(1, 1, 1, 1)
    units = []
    for i in P.indices():
        for j in P.indices():
            m = matrix_unit(i, j, P)
            units.append((m, homogeneous_grade(m)))
    for x, a in units:
        for y, b in units:
            bxy = graded_bracket(x, y)
            byx = graded_bracket(y, x)
            assert bxy == byx * (-a.sign(b))
            assert bxy.supertrace().is_zero
            if not bxy.is_zero:
                assert homogeneous_grade(bxy) == a + b


def test_axiom_report_passes():
    rank_four, rank_five = (
        [b for b in itertools.product(range(total + 1), repeat=4) if sum(b) == total]
        for total in (4, 5)
    )
    assert (len(rank_four), len(rank_five)) == (35, 56)
    for blocks in [(0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 1, 1), *rank_four, *rank_five]:
        P = AlgebraParams(*blocks)
        report = axiom_report(P)
        n = P.size
        assert report.passed
        assert report.pairs_checked == n**4
        assert report.triples_checked == n**6


def _reference_axiom_report(P):
    """The axiom sweep rebuilt from graded_bracket and _jacobi_residual."""
    units = [
        (i, j, matrix_unit(i, j, P), P.index_grade(i) + P.index_grade(j))
        for i in P.indices()
        for j in P.indices()
    ]
    failures = []
    for i1, j1, x, a in units:
        for i2, j2, y, b in units:
            bxy = graded_bracket(x, y)
            sym = bxy + graded_bracket(y, x) * a.sign(b)
            if not sym.is_zero:
                failures.append(
                    {"identity": "symmetry", "indices": [i1, j1, i2, j2], "residual": sym.to_json()}
                )
            if not bxy.is_zero and (
                len(bxy._components()) != 1 or homogeneous_grade(bxy) != a + b
            ):
                failures.append(
                    {"identity": "grading", "indices": [i1, j1, i2, j2], "residual": bxy.to_json()}
                )
            st = bxy.supertrace()
            if not st.is_zero:
                failures.append(
                    {"identity": "supertrace", "indices": [i1, j1, i2, j2], "residual": st.to_json()}
                )
    for i1, j1, x, _ in units:
        for i2, j2, y, _ in units:
            for i3, j3, z, _ in units:
                res = _jacobi_residual(x, y, z)
                if not res.is_zero:
                    failures.append({
                        "identity": "jacobi",
                        "indices": [i1, j1, i2, j2, i3, j3],
                        "residual": res.to_json(),
                    })
    n = P.size
    return {
        "params": list(P.as_tuple()),
        "pairs_checked": n**4,
        "triples_checked": n**6,
        "failures": failures,
    }


def test_axiom_report_planted_grade_fault_matches_reference(monkeypatch):
    P = AlgebraParams(1, 1, 1, 1)
    honest = AlgebraParams.index_grade

    def misgraded(self, i):
        return Grade(1, 0) if i == 1 else honest(self, i)

    monkeypatch.setattr(AlgebraParams, "index_grade", misgraded)
    report = axiom_report(P)
    assert not report.passed
    assert report.to_json() == _reference_axiom_report(P)


def test_axiom_report_planted_sign_fault_matches_reference(monkeypatch):
    # (-1)**(a.b) with OR in place of the sum mod 2 is no longer a bicharacter,
    # so Jacobi fails; Grade.dot feeds both the sweep and graded_bracket.
    P = AlgebraParams(1, 0, 1, 1)
    monkeypatch.setattr(Grade, "dot", lambda a, b: (a.a1 & b.a1) | (a.a2 & b.a2))
    report = axiom_report(P)
    assert any(f.identity == "jacobi" for f in report.failures)
    assert report.to_json() == _reference_axiom_report(P)


# sha256 of json.dumps(axiom_report(P).to_json(), sort_keys=True) under each
# planted fault, recorded from the integer-tuple sweep that preceded the
# GradedMatrix one; the two sweeps share no bracket code.
_PLANTED_AXIOM_DIGESTS = {
    ("grade", (1, 1, 1, 1)): "5379c51f62c180eab18cc852c6057f1d48172f9d1a67292a19311b6b06f1d191",
    ("grade", (1, 0, 1, 1)): "2ba83f860f419001bb8489abed97611775a0c54bed7a73bdb336349e1c9590f3",
    ("grade", (2, 1, 2, 1)): "e853a14a6a258d7986f1f0226c17be9ee28da5459de18213cdfa0715fc020e97",
    ("sign", (1, 1, 1, 1)): "ec94c599965b1b2b660e8a6c738595d984422440bcbdf6862c58edded1d5f7a0",
    ("sign", (1, 0, 1, 1)): "ca5dce83257525382c928f99c5ef17e31b280246bad42834a10ba390333706fd",
    ("sign", (2, 1, 2, 1)): "9e8a769cc88cfdf4057d4f1ab286906ded6cd1f1fceb33a7b0bfc33824d1a1eb",
}


@pytest.mark.parametrize("fault, blocks", sorted(_PLANTED_AXIOM_DIGESTS))
def test_axiom_report_planted_faults_match_pinned_digests(monkeypatch, fault, blocks):
    if fault == "grade":
        honest = AlgebraParams.index_grade
        monkeypatch.setattr(
            AlgebraParams, "index_grade",
            lambda self, i: Grade(1, 0) if i == 1 else honest(self, i),
        )
    else:
        monkeypatch.setattr(Grade, "dot", lambda a, b: (a.a1 & b.a1) | (a.a2 & b.a2))
    report = axiom_report(AlgebraParams(*blocks))
    assert not report.passed
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _PLANTED_AXIOM_DIGESTS[fault, blocks]


# sha256 of json.dumps(axiom_report(P).to_json(), sort_keys=True) when every
# bracket whose right operand has more than one entry gains e_00, recorded
# from the sweep that walked the unit pairs twice (pair checks, then Jacobi).
_JACOBI_ONLY_DIGESTS = {
    (1, 1, 1, 1): (972, "0d655fc6626f9ba6963dc0e034a3d93296d642faf27eba72ef0d4ebda377a91f"),
    (1, 0, 1, 1): (368, "1348577540cc7c36c92f19d4561ae0b947006b2fb69b0a7f01a681d63dbaf315"),
    (2, 1, 2, 1): (4056, "0f94a50aa0e2c4985620517efd1f7e444a2dd74c846c6033375b0e22a7abee57"),
}


@pytest.mark.parametrize("blocks", sorted(_JACOBI_ONLY_DIGESTS))
def test_a_fault_only_the_jacobi_check_sees_matches_pinned_digest(monkeypatch, blocks):
    # Unit brackets have a unit as right operand, so every pair check still
    # passes; only the [x,[y,z]] terms of the Jacobi identity are wrong.
    P = AlgebraParams(*blocks)
    honest = grading.graded_bracket

    def planted(x, y):
        out = honest(x, y)
        return out + GradedMatrix.unit(P, 0, 0) if y.nnz > 1 else out

    monkeypatch.setattr(grading, "graded_bracket", planted)
    report = axiom_report(P)
    count, digest = _JACOBI_ONLY_DIGESTS[blocks]
    assert {f.identity for f in report.failures} == {"jacobi"}
    assert len(report.failures) == count
    assert (report.pairs_checked, report.triples_checked) == (P.size**4, P.size**6)
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_a_second_component_after_the_right_grade_fails_the_grading_check(monkeypatch):
    P = AlgebraParams(1, 1, 1, 1)
    honest = grading.graded_bracket
    e01, e10, stray = matrix_unit(0, 1, P), matrix_unit(1, 0, P), matrix_unit(0, 3, P)

    def planted(x, y):
        out = honest(x, y)
        return out + stray if (x, y) == (e01, e10) else out

    monkeypatch.setattr(grading, "graded_bracket", planted)
    # [e_01, e_10] gains a (1,0) component after its correct (0,0) one
    grades = [g for g, _ in planted(e01, e10)._components()]
    assert grades == [Grade(0, 0), Grade(1, 0)]
    report = axiom_report(P)
    assert ("grading", (0, 1, 1, 0)) in {(f.identity, f.indices) for f in report.failures}


# graded_bracket calls of one axiom sweep: the units' brackets, then each
# unit's with each of those on both sides, every distinct pair once
_AXIOM_BRACKET_COUNTS = {(1, 1, 1, 1): 2375, (4, 0, 0, 0): 2675, (2, 1, 2, 1): 9555}


def test_the_axiom_sweep_brackets_each_distinct_pair_once(monkeypatch):
    honest, calls = grading.graded_bracket, [0]

    def counted(x, y):
        calls[0] += 1
        return honest(x, y)

    monkeypatch.setattr(grading, "graded_bracket", counted)
    for blocks, count in _AXIOM_BRACKET_COUNTS.items():
        calls[0] = 0
        assert axiom_report(AlgebraParams(*blocks)).passed
        assert calls[0] == count, blocks


def test_axiom_sweep_size_guard(monkeypatch):
    def refuse(*args):
        raise AssertionError("the axiom sweep was started")

    monkeypatch.setattr(grading, "_BracketTable", refuse)
    assert 21**6 <= grading.MAX_AXIOM_TRIPLES < 22**6
    P = AlgebraParams(10, 0, 11, 0)
    assert P.size == 22
    with pytest.raises(ValueError, match=f"{22**6} Jacobi triples"):
        axiom_report(P)


def test_matrix_json_row_major_nonzero():
    P = AlgebraParams(1, 0, 1, 0)
    m = matrix_unit(2, 0, P) + matrix_unit(0, 1, P) * 2
    data = m.to_json()
    assert data["params"] == [1, 0, 1, 0]
    coords = [(e["row"], e["col"]) for e in data["entries"]]
    assert coords == [(0, 1), (2, 0)]
    assert all(e["coeff"] for e in data["entries"])


def test_matrix_algebra_basics():
    P = AlgebraParams(1, 0, 0, 0)
    a = matrix_unit(0, 1, P)
    b = matrix_unit(1, 0, P)
    assert (a @ b) == matrix_unit(0, 0, P)
    assert (a + b).transpose() == a + b
    assert (a * 0).is_zero
    assert a - a == GradedMatrix.zero(P)
    with pytest.raises(ValueError):
        GradedMatrix(P, {(0, 5): RadicalSum(1)})


# ------------------------------------------------ the one-accumulation bracket


def _two_product_bracket(x, y):
    """The graded bracket as separate products combined by @, + and -."""
    total = None
    for a, xa in x._components():
        for b, yb in y._components():
            term = xa @ yb + yb @ xa if a.dot(b) else xa @ yb - yb @ xa
            total = term if total is None else total + term
    return x._like({}) if total is None else total


def _assert_bracket_matches_products(x, y):
    got, expected = graded_bracket(x, y), _two_product_bracket(x, y)
    assert type(got) is type(expected)
    assert got._entries == expected._entries
    assert got.grade == expected.grade


_BLOCKS = ((1, 1, 1, 1), (1, 0, 1, 1), (2, 0, 0, 1))
_SCALARS = st.sampled_from(
    [1, -1, 3, Fraction(1, 2), RadicalSum.sqrt(2), RadicalSum.sqrt(3) * -2, RadicalSum.sqrt(2) + 1]
)


@st.composite
def _matrix_pairs(draw):
    """Two GradedMatrix elements, each with entries of up to four grades."""
    P = AlgebraParams(*draw(st.sampled_from(_BLOCKS)))
    cells = st.tuples(st.integers(0, P.size - 1), st.integers(0, P.size - 1))
    return tuple(GradedMatrix(P, draw(st.dictionaries(cells, _SCALARS, max_size=9))) for _ in "xy")


@st.composite
def _operator_pairs(draw):
    """Two ladder operators of either kind, each possibly summed with a
    third or scaled to zero, which keeps its declared grade."""
    P, p = AlgebraParams(*draw(st.sampled_from(_BLOCKS))), draw(st.integers(1, 3))
    ops = [op for kind in BASIS_KINDS for op in itertools.chain(*ladder_operators(P, p, kind))]
    pick = st.sampled_from(ops)
    pair = []
    for _ in "xy":
        op = draw(pick)
        pair.append(draw(st.sampled_from([op, op + draw(pick), op * 0])))
    return tuple(pair)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_matrix_pairs(), _operator_pairs()))
def test_the_bracket_equals_its_two_product_reference(pair):
    _assert_bracket_matches_products(*pair)


def test_zero_brackets_match_the_two_product_reference():
    P, p = AlgebraParams(1, 1, 1, 1), 2
    plus, minus = ladder_operators(P, p, "orthonormal")
    unit = matrix_unit(0, 3, P)
    cases = [
        (GradedMatrix.zero(P), unit),  # no components: x._like({}), grade None
        (unit, GradedMatrix.zero(P)),
        (plus[0] * 0, minus[0]),  # declared, but no components
        (plus[0], plus[1]),  # declared and cancelling: the grade stays
    ]
    for x, y in cases:
        _assert_bracket_matches_products(x, y)
        assert graded_bracket(x, y).is_zero
    assert graded_bracket(plus[0] * 0, minus[0]).grade is None
    assert graded_bracket(plus[0], plus[1]).grade == Grade(0, 0) + Grade(1, 1)
