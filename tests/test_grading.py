"""Degree arithmetic, graded brackets, supertrace and the bracket axioms."""

import copy
import hashlib
import itertools
import json
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzsl import grading
from zzsl import (
    GRADES,
    AlgebraParams,
    FTildeVariant,
    GeneratorId,
    Grade,
    GradedMatrix,
    RadicalSum,
    axiom_report,
    graded_bracket,
    ladder_operators,
)
from zzsl.fock import BASIS_KINDS
from zzsl.reports import (
    AxiomReport,
    CheckFailure,
    DiscriminationReport,
    RelationReport,
    VariantOutcome,
)

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
    e02 = GradedMatrix.unit(P, 0, 2)
    parts = _decompose(e02)
    assert parts[Grade(1, 0)] == e02
    _assert_components_match(e02)
    assert homogeneous_grade(e02) == Grade(1, 0)

    mixed = e02 + GradedMatrix.unit(P, 1, 1)
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
    e00 = GradedMatrix.unit(P, 0, 0)
    for k in range(1, 5):
        d = P.index_grade(k)
        lhs = graded_bracket(GradedMatrix.unit(P, 0, k), GradedMatrix.unit(P, k, 0))
        rhs = e00 - GradedMatrix.unit(P, k, k) * (1 if d.dot(d) == 0 else -1)
        assert lhs == rhs


def test_bracket_even_self_commutes():
    P = AlgebraParams(1, 1, 0, 0)
    x = GradedMatrix.unit(P, 0, 1) + GradedMatrix.unit(P, 1, 0)
    assert homogeneous_grade(x) == Grade(0, 0)
    assert graded_bracket(x, x).is_zero


def test_bracket_anticommutator_case():
    P = AlgebraParams(1, 0, 1, 0)
    lhs = graded_bracket(GradedMatrix.unit(P, 2, 0), GradedMatrix.unit(P, 0, 2))
    assert lhs == GradedMatrix.unit(P, 2, 2) + GradedMatrix.unit(P, 0, 0)


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        graded_bracket(
            GradedMatrix.unit(AlgebraParams(1, 0, 0, 0), 0, 0),
            GradedMatrix.unit(AlgebraParams(0, 1, 0, 0), 0, 0),
        )


def test_supertrace():
    P = AlgebraParams(1, 1, 1, 1)
    assert _identity(P).supertrace() == 1
    assert GradedMatrix.unit(P, 0, 0).supertrace() == 1
    assert GradedMatrix.unit(P, P.m + 1, P.m + 1).supertrace() == RadicalSum(-1)


def test_jacobi_exhaustive_small():
    P = AlgebraParams(1, 0, 1, 0)
    units = [GradedMatrix.unit(P, i, j) for i in P.indices() for j in P.indices()]
    for x in units:
        for y in units:
            for z in units:
                assert _jacobi_residual(x, y, z).is_zero


def test_jacobi_spot_cases():
    P = AlgebraParams(1, 0, 1, 0)
    e00 = GradedMatrix.unit(P, 0, 0)
    assert _jacobi_residual(e00, e00, e00).is_zero
    assert _jacobi_residual(
        GradedMatrix.unit(P, 0, 1), GradedMatrix.unit(P, 1, 0), GradedMatrix.unit(P, 0, 2)
    ).is_zero


def test_jacobi_rejects_non_homogeneous():
    P = AlgebraParams(1, 0, 1, 0)
    mixed = GradedMatrix.unit(P, 0, 2) + GradedMatrix.unit(P, 1, 1)
    with pytest.raises(ValueError):
        _jacobi_residual(mixed, mixed, mixed)


def test_jacobi_random_triples_larger_algebra():
    P = AlgebraParams(2, 1, 1, 1)
    units = [GradedMatrix.unit(P, i, j) for i in P.indices() for j in P.indices()]
    rng = random.Random(20240817)
    for _ in range(1000):
        x, y, z = (rng.choice(units) for _ in range(3))
        assert _jacobi_residual(x, y, z).is_zero


def test_symmetry_and_grading_and_supertrace_of_brackets():
    P = AlgebraParams(1, 1, 1, 1)
    units = []
    for i in P.indices():
        for j in P.indices():
            m = GradedMatrix.unit(P, i, j)
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
        (i, j, GradedMatrix.unit(P, i, j), P.index_grade(i) + P.index_grade(j))
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
    e01, e10 = GradedMatrix.unit(P, 0, 1), GradedMatrix.unit(P, 1, 0)
    stray = GradedMatrix.unit(P, 0, 3)

    def planted(x, y):
        out = honest(x, y)
        return out + stray if (x, y) == (e01, e10) else out

    monkeypatch.setattr(grading, "graded_bracket", planted)
    # [e_01, e_10] gains a (1,0) component after its correct (0,0) one
    grades = [g for g, _ in planted(e01, e10)._components()]
    assert grades == [Grade(0, 0), Grade(1, 0)]
    report = axiom_report(P)
    assert ("grading", (0, 1, 1, 0)) in {(f.identity, f.indices) for f in report.failures}


# graded_bracket calls of one passing axiom sweep: the units' brackets, then
# the outer brackets [unit, nonzero bracket] of the sorted Jacobi triples,
# every distinct pair once
_AXIOM_BRACKET_COUNTS = {(1, 1, 1, 1): 1225, (4, 0, 0, 0): 1275, (2, 1, 2, 1): 4998}


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


def _full_sweep_json(P):
    """``axiom_report(P).to_json()`` with the sorted-triple sweep declined."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grading, "_sorted_sweep_passes", lambda *args: False)
        return axiom_report(P).to_json()


def test_sorted_triples_report_what_the_full_sweep_reports(monkeypatch):
    def refuse(*args):
        raise AssertionError("the full sweep was run")

    points = [
        blocks
        for total in range(5)
        for blocks in itertools.product(range(total + 1), repeat=4)
        if sum(blocks) == total
    ]
    assert len(points) == 70
    for blocks in [*points, (2, 1, 2, 1)]:
        P = AlgebraParams(*blocks)
        with monkeypatch.context() as mp:
            mp.setattr(grading, "_full_axiom_sweep", refuse)
            sorted_only = axiom_report(P).to_json()
        assert sorted_only == _full_sweep_json(P), blocks


def test_a_planted_antisymmetry_fault_runs_the_full_sweep_and_names_its_pair(monkeypatch):
    # [e_10, e_01] doubled: the sorted sweep meets this bracket only as the
    # transposed entry of the pair (e_01, e_10)
    P = AlgebraParams(1, 1, 1, 1)
    honest, full, runs = grading.graded_bracket, grading._full_axiom_sweep, []
    e10, e01 = GradedMatrix.unit(P, 1, 0), GradedMatrix.unit(P, 0, 1)

    def planted(x, y):
        out = honest(x, y)
        return out * 2 if (x, y) == (e10, e01) else out

    def counted(*args):
        runs.append(args)
        return full(*args)

    monkeypatch.setattr(grading, "graded_bracket", planted)
    monkeypatch.setattr(grading, "_full_axiom_sweep", counted)
    report = axiom_report(P)
    assert len(runs) == 1
    symmetry = [f.indices for f in report.failures if f.identity == "symmetry"]
    assert symmetry == [(0, 1, 1, 0), (1, 0, 0, 1)]
    assert report.to_json() == _full_sweep_json(P)


@st.composite
def _perturbed_brackets(draw):
    """An algebra with m+n <= 3 and a ``graded_bracket`` whose value on one
    drawn pair of units (x, y) of degrees (a, b) is moved by plus or minus
    one drawn unit s, of degree a+b or of any degree.  Mirrored, [y, x] moves
    by -e(a,b) s too, so the symmetry check passes and, with s of degree a+b,
    the grading check too: then the Jacobi check must see the fault."""
    blocks = draw(st.sampled_from(
        [b for b in itertools.product(range(4), repeat=4) if sum(b) <= 3]
    ))
    P = AlgebraParams(*blocks)
    units = [(i, j) for i in P.indices() for j in P.indices()]
    x, y = draw(st.sampled_from(units)), draw(st.sampled_from(units))
    a, b = (P.index_grade(i) + P.index_grade(j) for i, j in (x, y))
    graded = [(i, j) for i, j in units if P.index_grade(i) + P.index_grade(j) == a + b]
    s = draw(st.sampled_from(graded if graded and draw(st.booleans()) else units))
    shift = GradedMatrix.unit(P, *s) * draw(st.sampled_from([1, -1]))
    ex, ey = GradedMatrix.unit(P, *x), GradedMatrix.unit(P, *y)
    shifts = [((ex, ey), shift)]
    if draw(st.booleans()):
        shifts.append(((ey, ex), shift * -a.sign(b)))
    honest = grading.graded_bracket

    def perturbed(u, v):
        out = honest(u, v)
        for pair, by in shifts:
            if (u, v) == pair:
                out = out + by
        return out

    return P, perturbed


@settings(max_examples=30, deadline=None)
@given(_perturbed_brackets())
def test_a_perturbed_bracket_reports_what_the_full_sweep_reports(drawn):
    P, perturbed = drawn
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grading, "graded_bracket", perturbed)
        assert axiom_report(P).to_json() == _full_sweep_json(P)


def test_axiom_sweep_size_guard(monkeypatch):
    def refuse(*args):
        raise AssertionError("the axiom sweep was started")

    monkeypatch.setattr(grading, "_BracketTable", refuse)
    assert 21**6 <= grading.MAX_AXIOM_TRIPLES < 22**6
    P = AlgebraParams(10, 0, 11, 0)
    assert P.size == 22
    with pytest.raises(ValueError, match=f"{22**6} Jacobi triples"):
        axiom_report(P)


# (type, fields, a value, another value, [(invalid args, ValueError message)])
_VALUE_TYPES = [
    (Grade, ("a1", "a2"), (1, 0), (0, 1), [
        ((2, 0), "grade components must be bits"),
        (([1], 0), "grade components must be bits"),
    ]),
    (AlgebraParams, ("m1", "m2", "n1", "n2"), (1, 0, 1, 1), (1, 1, 0, 1), [
        ((1, -1, 0, 0), "m2 must be a nonnegative integer, got -1"),
        ((True, 0, 0, 0), "m1 must be a nonnegative integer, got True"),
        ((0, 0, 0, 1.0), "n2 must be a nonnegative integer, got 1.0"),
    ]),
    (GeneratorId, ("index", "sign"), (2, "+"), (2, "-"), [
        ((1, "x"), "sign must be '+' or '-', got 'x'"),
        ((True, "+"), "generator index must be a positive integer, got True"),
        ((0, "-"), "generator index must be a positive integer, got 0"),
    ]),
    (FTildeVariant, ("plus_slot", "minus_slot"), ("lambda", "theta"), ("theta", "lambda"), [
        (("lambda", "mu"), "slot must be 'lambda' or 'theta', got 'mu'"),
    ]),
]

# repr of the first value of each row above (kept apart so the test ids stay put)
_REPRS = {
    Grade: "Grade(a1=1, a2=0)",
    AlgebraParams: "AlgebraParams(m1=1, m2=0, n1=1, n2=1)",
    GeneratorId: "GeneratorId(index=2, sign='+')",
    FTildeVariant: "FTildeVariant(plus_slot='lambda', minus_slot='theta')",
}


def _bare_value(cls, args):
    """A value of ``cls``, a bare ``_Frozen`` subclass, with its slots set to ``args``."""
    value = object.__new__(cls)
    for field, arg in zip(cls.__slots__, args):
        object.__setattr__(value, field, arg)
    return value


@pytest.mark.parametrize("cls, fields, args, other, invalid", _VALUE_TYPES)
def test_value_types_compare_hash_and_refuse_assignment(cls, fields, args, other, invalid):
    value = cls(*args)
    same = cls(**dict(zip(fields, args)))
    assert value == same and hash(value) == hash(same)
    text = _REPRS[cls]
    assert repr(value) == text
    # equal fields in another class: unequal, though each hashes as its field tuple
    First, Second = (
        type(name, (grading._Frozen,), {"__slots__": fields}) for name in ("First", "Second")
    )
    first, second = _bare_value(First, args), _bare_value(Second, args)
    assert first == _bare_value(First, args) and first != second
    assert value != first and first != value
    assert hash(first) == hash(second) == hash(args)
    assert repr(second) == "Second" + text[len(cls.__name__):]
    assert value != cls(*other) and len({value, same, cls(*other)}) == 2
    # hashed as the tuple of its fields, yet not equal to that tuple
    assert hash(value) == hash(args) and value != args
    assert tuple(getattr(value, name) for name in fields) == args
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert copy.deepcopy(value) == value and pickle.loads(pickle.dumps(value)) == value
    for bad, message in invalid:
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(*bad)


def test_value_type_defaults_and_shared_degrees():
    assert FTildeVariant() == FTildeVariant("lambda", "lambda")
    assert Grade(1, 0) is Grade(1, 0) is GRADES[2]
    assert [str(g) for g in GRADES] == ["(0,0)", "(1,1)", "(1,0)", "(0,1)"]


def test_reports_take_a_fresh_failure_list_by_default():
    first, second = AxiomReport((0, 0, 0, 0), 1, 1), AxiomReport((0, 0, 0, 0), 1, 1)
    first.failures.append("x")
    assert second.failures == [] and second.passed
    one, two = RelationReport((0, 0, 0, 0), "s", 0), RelationReport((0, 0, 0, 0), "s", 0)
    one.failures.append("x")
    assert two.failures == [] and two.vacuous
    assert VariantOutcome("v", True).relation_failure is None


_FAILURE = CheckFailure("jacobi", (0, 1, 1, 0, 0, 2), [{"row": 0, "col": 2, "coeff": "-1"}])
_FAILURE_JSON = {
    "identity": "jacobi",
    "indices": [0, 1, 1, 0, 0, 2],
    "residual": [{"row": 0, "col": 2, "coeff": "-1"}],
}
_FIRST_FAILURE = {"suite": "relations-orthonormal", "relation": "rel2", "i": 1, "j": 2, "k": 1,
                  "residual": []}
_OUTCOMES_JSON = [
    {"variant": "v0", "passed": True, "relation_failure": None},
    {"variant": "v1", "passed": False, "relation_failure": _FIRST_FAILURE},
]


@pytest.mark.parametrize("report, expected, tuple_keys", [
    (_FAILURE, _FAILURE_JSON, ["indices"]),
    (
        AxiomReport((1, 0, 1, 1), 10, 20, [_FAILURE]),
        {"params": [1, 0, 1, 1], "pairs_checked": 10, "triples_checked": 20,
         "failures": [_FAILURE_JSON]},
        ["params"],
    ),
    (VariantOutcome("v1", False, _FIRST_FAILURE), _OUTCOMES_JSON[1], []),
    (
        DiscriminationReport(
            (1, 0, 1, 1),
            2,
            [VariantOutcome("v0", True), VariantOutcome("v1", False, _FIRST_FAILURE)],
        ),
        {"params": [1, 0, 1, 1], "p": 2, "corrected_only_passes": True, "outcomes": _OUTCOMES_JSON},
        ["params"],
    ),
])
def test_report_json_keeps_its_key_order(report, expected, tuple_keys):
    """Key order, which no digest covers here (the axiom digests sort their
    keys), and tuple fields rendered as lists."""
    data = report.to_json()
    assert data == expected and list(data) == list(expected)
    assert json.dumps(data) == json.dumps(expected)
    assert all(type(data[key]) is list for key in tuple_keys)


def test_matrix_json_row_major_nonzero():
    P = AlgebraParams(1, 0, 1, 0)
    m = GradedMatrix.unit(P, 2, 0) + GradedMatrix.unit(P, 0, 1) * 2
    data = m.to_json()
    assert data["params"] == [1, 0, 1, 0]
    coords = [(e["row"], e["col"]) for e in data["entries"]]
    assert coords == [(0, 1), (2, 0)]
    assert all(e["coeff"] for e in data["entries"])


def test_matrix_algebra_basics():
    P = AlgebraParams(1, 0, 0, 0)
    a = GradedMatrix.unit(P, 0, 1)
    b = GradedMatrix.unit(P, 1, 0)
    assert (a @ b) == GradedMatrix.unit(P, 0, 0)
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
    unit = GradedMatrix.unit(P, 0, 3)
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
