"""Fock basis enumeration, ladder actions and representation verification."""

import hashlib
import itertools
import json
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzsl import (
    FAMILIES,
    FT_CORRECTED,
    AlgebraParams,
    FTildeVariant,
    GeneratorId,
    Grade,
    RadicalSum,
    closed_form_dimension,
    dimension,
    enumerate_basis,
    ft_variant_discrimination,
    ft_variants,
    generator_ids,
    graded_bracket,
    ladder_operators,
    operator_matrix,
    order_one_defining_comparison,
    relation_suite,
    single_quantum_state,
    spanning_rank,
    verify_representation,
)
from zzsl import algebra, fock, statistics
from zzsl.algebra import checks_at, relation_report, sweep_indices
from zzsl.fock import BASIS_KINDS, MAX_BASIS_DIMENSION
from zzsl.reports import (
    DiscriminationReport,
    RelationFailure,
    RelationReport,
    RepresentationReport,
    VariantOutcome,
)


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
    assert basis.index_of((0, 0)) == 0
    assert set(basis.occupations) == {(0, 0), (1, 0), (0, 1)}


def test_basis_thirteen_states():
    assert dimension(AlgebraParams(1, 1, 1, 1), 2) == 13


def test_basis_order_and_uniqueness():
    P = AlgebraParams(1, 1, 1, 1)
    basis = enumerate_basis(P, 3)
    keys = [(sum(occ), occ) for occ in basis.occupations]
    assert keys == sorted(keys)
    assert len(set(basis.occupations)) == len(basis)
    assert [occ for occ in basis.occupations if sum(occ) == 0] == [(0, 0, 0, 0)]
    for pos, occ in enumerate(basis.occupations):
        assert basis.index_of(occ) == pos


def test_basis_rejects_p_zero():
    with pytest.raises(ValueError):
        enumerate_basis(AlgebraParams(1, 0, 0, 0), 0)
    # a bool order is rejected even after the int 1 is cached
    enumerate_basis(AlgebraParams(1, 0, 0, 0), 1)
    ladder_operators(AlgebraParams(1, 0, 0, 0), 1)
    with pytest.raises(ValueError):
        enumerate_basis(AlgebraParams(1, 0, 0, 0), True)
    with pytest.raises(ValueError):
        ladder_operators(AlgebraParams(1, 0, 0, 0), True)


def test_ladder_operators_check_their_arguments_without_orbitals():
    # at m+n = 0 no operator is built, and a bad kind or order still fails
    P = AlgebraParams(0, 0, 0, 0)
    assert ladder_operators(P, 1, "orthonormal") == ((), ())
    cached = ladder_operators.cache_info().currsize
    for p, kind in ((0, "orthonormal"), (1, "nope"), (True, "orthonormal")):
        with pytest.raises(ValueError):
            ladder_operators(P, p, kind)
    assert ladder_operators.cache_info().currsize == cached


def test_basis_size_guard_and_bounded_cache():
    params = AlgebraParams(3, 3, 0, 0)  # closed form C(p+6, 6)
    assert closed_form_dimension(params, 4) == 210 <= MAX_BASIS_DIMENSION
    assert len(enumerate_basis(params, 4)) == 210
    assert closed_form_dimension(params, 30) > MAX_BASIS_DIMENSION
    with pytest.raises(ValueError, match=str(closed_form_dimension(params, 30))):
        enumerate_basis(params, 30)
    assert enumerate_basis.cache_info().maxsize == 256


@st.composite
def _small_modules(draw):
    """A composition with m+n <= 7 and an order p <= 6."""
    blocks = []
    for _ in range(4):
        blocks.append(draw(st.integers(0, 7 - sum(blocks))))
    return AlgebraParams(*blocks), draw(st.integers(1, 6))


@settings(max_examples=60, deadline=None)
@given(_small_modules())
def test_basis_is_the_brute_force_occupation_set(module):
    P, p = module
    ranges = [range(p + 1)] * P.m + [range(2)] * P.n
    admissible = [occ for occ in itertools.product(*ranges) if sum(occ) <= p]
    basis = enumerate_basis(P, p)
    assert list(basis.occupations) == sorted(admissible, key=lambda occ: (sum(occ), occ))
    assert len(basis) == closed_form_dimension(P, p)


# sha256 over json.dumps([[m1, m2, n1, n2], p, basis.to_json()]) for every
# composition with m+n <= 4 (in small_sweep order) and p = 1..4
_BASIS_JSON_DIGEST = "f388a03287c9cbf10b87bb2f74a13d78714a66828b0005f45a48074359814ff3"


def test_basis_json_is_pinned():
    digest = hashlib.sha256()
    for P in small_sweep(4):
        for p in range(1, 5):
            payload = [list(P.as_tuple()), p, enumerate_basis(P, p).to_json()]
            digest.update(json.dumps(payload).encode())
    assert digest.hexdigest() == _BASIS_JSON_DIGEST


# sha256 over repr([basis.index_grade(i).as_tuple() for every index i]) for
# the same compositions and orders, in the same order
_DEGREE_DIGEST = "47c777f9d163b25c9e8ec7e7860a03255a5e696f7527582f5de58fe70a96c5ba"


def test_state_degrees_are_pinned():
    digest = hashlib.sha256()
    for P in small_sweep(4):
        for p in range(1, 5):
            basis = enumerate_basis(P, p)
            grades = [basis.index_grade(i).as_tuple() for i in range(len(basis))]
            digest.update(repr(grades).encode())
    assert digest.hexdigest() == _DEGREE_DIGEST


def test_state_validation():
    # index_of is the one validation point of a flat occupation tuple
    basis = enumerate_basis(AlgebraParams(1, 1, 1, 1), 2)
    assert basis.index_of((1, 0, 0, 1)) == basis.occupations.index((1, 0, 0, 1))
    for bad in [
        (True, 0, 0, 0),  # a bool or a float entry hashes and compares equal
        (1.0, 0, 0, 0),  # to its int, so a bare dict lookup would find it
        (0, 0, False, 0),
        (-1, 0, 0, 0),
        (0, 0, 2, 0),  # an odd orbital holds at most one quantum
        (2, 1, 0, 0),  # total 3 above p = 2
        (0, 0, 0),
        (0, 0, 0, 0, 0),
        [1, 0, 0, 1],  # not a tuple
    ]:
        with pytest.raises(ValueError):
            basis.index_of(bad)


def test_dimension_closed_form():
    assert dimension(AlgebraParams(0, 0, 1, 1), 2) == 4
    assert dimension(AlgebraParams(2, 0, 0, 0), 3) == 10
    for P in small_sweep(3):
        for p in (1, 2, 3):
            assert dimension(P, p) == closed_form_dimension(P, p)
        assert dimension(P, 1) == P.m + P.n + 1
    for bad in (0, True, 1.5):
        with pytest.raises(ValueError):
            closed_form_dimension(AlgebraParams(1, 0, 1, 0), bad)


def test_basis_json_uses_lambda_key():
    basis = enumerate_basis(AlgebraParams(0, 0, 1, 1), 1)
    rows = basis.to_json()
    assert rows[0] == {"index": 0, "r": [], "l": [], "theta": [0], "lambda": [0]}


# ------------------------------------------------------------- norm factors


def norm_factor(occ, m, p):
    """Scalar relating the unnormalized monomial vector of the admissible
    flat occupation tuple ``occ`` to its unit vector: sqrt((p-R)! / (p! *
    prod of the m bosonic occupations' factorials))."""
    fock._check_positive(p)
    if sum(occ) > p:
        raise ValueError(f"state with total {sum(occ)} is inadmissible at order {p}")
    denom = factorial(p) * prod(factorial(k) for k in occ[:m])
    return RadicalSum.sqrt_fraction(Fraction(factorial(p - sum(occ)), denom))


def test_norm_factor_examples():
    # one bosonic orbital, m = 1
    assert norm_factor((0,), 1, 2) == 1
    assert norm_factor((1,), 1, 2) == RadicalSum.sqrt(2) / 2
    assert norm_factor((2,), 1, 2) == Fraction(1, 2)
    with pytest.raises(ValueError):
        norm_factor((2,), 1, 1)
    # the order goes through the same positive-integer test as the dimension
    for bad in (True, 1.5, 0):
        with pytest.raises(ValueError, match="order p must be a positive integer"):
            norm_factor((1,), 1, bad)


# ------------------------------------------------------------------ actions


def _action(gid, params, occ, p, basis_kind="orthonormal"):
    """The nonzero entries of the operator matrix in the column of the flat
    occupation tuple ``occ``, as (coefficient, target tuple) pairs, read
    through ``basis.index_of``."""
    basis = enumerate_basis(params, p)
    col = basis.index_of(occ)
    op = operator_matrix(gid, params, p, basis_kind)
    return [(coeff, basis.occupations[row]) for row, j, coeff in op.items() if j == col]


def test_lowering_kills_vacuum():
    P = AlgebraParams(1, 1, 1, 1)
    vac = (0, 0, 0, 0)
    for i in range(1, 5):
        assert _action(GeneratorId(i, "-"), P, vac, 2) == []


def test_f_raising_sign_example():
    P = AlgebraParams(1, 1, 1, 1)
    out = _action(GeneratorId(3, "+"), P, (0, 1, 0, 0), 2)
    assert out == [(RadicalSum(-1), (0, 1, 1, 0))]


def test_pauli_factor():
    P = AlgebraParams(1, 1, 1, 1)
    assert _action(GeneratorId(3, "+"), P, (0, 0, 1, 0), 2) == []


def test_unnormalized_lowering_coefficient():
    P = AlgebraParams(1, 0, 0, 0)
    out = _action(GeneratorId(1, "-"), P, (2,), 3, "unnormalized")
    assert out == [(RadicalSum(4), (1,))]


def test_unnormalized_raising_drops_at_cap():
    P = AlgebraParams(1, 0, 0, 0)
    assert _action(GeneratorId(1, "+"), P, (3,), 3, "unnormalized") == []
    out = _action(GeneratorId(1, "+"), P, (2,), 3, "unnormalized")
    assert out == [(RadicalSum(1), (3,))]


def test_apply_rejects_bad_input():
    with pytest.raises(ValueError):
        operator_matrix(GeneratorId(1, "+"), AlgebraParams(1, 0, 0, 0), 2, "bogus")
    with pytest.raises(ValueError):
        operator_matrix(
            GeneratorId(1, "+"),
            AlgebraParams(0, 0, 1, 1),
            2,
            "unnormalized",
            FTildeVariant("theta", "lambda"),
        )


# ----------------------------------------------------------------- matrices


def test_operator_matrix_single_entry():
    P = AlgebraParams(1, 0, 1, 0)
    basis = enumerate_basis(P, 1)
    op = operator_matrix(GeneratorId(1, "+"), P, 1)
    row = basis.index_of((1, 0))
    assert op.items() == [(row, 0, RadicalSum(1))]


def test_raising_is_strictly_grading_increasing():
    P = AlgebraParams(1, 1, 1, 1)
    basis = enumerate_basis(P, 2)
    for i in range(1, 5):
        op = operator_matrix(GeneratorId(i, "+"), P, 2)
        for row, col, _ in op.items():
            assert sum(basis.occupations[row]) == sum(basis.occupations[col]) + 1


def test_transpose_structure():
    P = AlgebraParams(1, 1, 1, 1)
    for i in range(1, 5):
        up = operator_matrix(GeneratorId(i, "+"), P, 2)
        down = operator_matrix(GeneratorId(i, "-"), P, 2)
        assert up.nnz == down.nnz
        assert up.transpose() == down


def test_operator_degree_shift():
    # every corrected-variant ladder operator declares its generator's grade
    # d_i, and each of its entries moves a state of degree g to one of g + d_i
    for P in small_sweep(4):
        for p in (1, 2, 3):
            basis = enumerate_basis(P, p)
            for kind in BASIS_KINDS:
                plus, minus = ladder_operators(P, p, kind)
                for i in P.operator_indices():
                    d = P.index_grade(i)
                    for op in (plus[i - 1], minus[i - 1]):
                        assert op.grade == d
                        for row, col, _ in op.items():
                            assert basis.index_grade(row) == basis.index_grade(col) + d


def test_nilpotency():
    P = AlgebraParams(1, 1, 1, 1)
    p = 2
    for i in range(1, 5):
        up = operator_matrix(GeneratorId(i, "+"), P, p)
        if i in (3, 4):
            assert (up @ up).is_zero
        assert (up ** (p + 1)).is_zero


def test_power_takes_positive_int_exponents_only():
    up = operator_matrix(GeneratorId(1, "+"), AlgebraParams(1, 0, 1, 0), 1)
    assert up ** 1 == up
    for bad in (True, False, 0, -1, 1.0, Fraction(1)):
        with pytest.raises(ValueError):
            up ** bad


def _both_kinds(P, p):
    """(basis, orthonormal pair, unnormalized pair), the check's arguments."""
    return (enumerate_basis(P, p), *(ladder_operators(P, p, kind) for kind in BASIS_KINDS))


def test_quotient_consistency():
    # conjugating the integer matrices by the norm-factor diagonal gives the
    # orthonormal matrices entry by entry
    for P, p in ((AlgebraParams(1, 1, 1, 1), 2), (AlgebraParams(1, 0, 1, 0), 3)):
        basis = enumerate_basis(P, p)
        factors = [norm_factor(occ, P.m, p) for occ in basis.occupations]
        for i in range(1, P.m + P.n + 1):
            for sign in "+-":
                gid = GeneratorId(i, sign)
                ortho = operator_matrix(gid, P, p, "orthonormal")
                plain = operator_matrix(gid, P, p, "unnormalized")
                assert ortho.nnz == plain.nnz
                for row, col, coeff in plain.items():
                    # ortho = N^-1 plain N entry by entry, with N = diag(factors)
                    assert ortho.entry(row, col) * factors[row] == factors[col] * coeff
        assert fock._orthonormal_is_conjugate(*_both_kinds(P, p))


def test_number_operator_identity():
    # [[a_i-, a_i+]] + (-1)**(d.d) * diag(occ_i) == diag(p - R) for every i
    P = AlgebraParams(1, 1, 1, 1)
    p = 2
    basis = enumerate_basis(P, p)
    plus, minus = ladder_operators(P, p)
    for i in range(1, 5):
        bracket = graded_bracket(minus[i - 1], plus[i - 1])
        assert bracket.is_diagonal
        d = P.index_grade(i)
        sign = 1 if d.dot(d) == 0 else -1
        for pos, occ in enumerate(basis.occupations):
            value = bracket.entry(pos, pos) + RadicalSum(sign * occ[i - 1])
            assert value == p - sum(occ)


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


# sha256 of the 350 reports' JSON below, concatenated in the test's order,
# recorded before the statistics families lost their basis kind.
_RANGE_DIGEST = "b9bcd39cdfb6566161ab000d6632f96e3cbfd62af8c855580e86232229d05d05"


def test_every_module_up_to_four_orbitals_and_order_five_verifies():
    compositions = list(small_sweep(4))
    assert len(compositions) == 70
    digest, failing = hashlib.sha256(), []
    for P in compositions:
        for p in range(1, 6):
            report = verify_representation(P, p)
            digest.update(json.dumps(report.to_json()).encode())
            if not report.passed:
                failing.append((P.as_tuple(), p))
    assert failing == []
    assert digest.hexdigest() == _RANGE_DIGEST


@st.composite
def _spot_checks(draw):
    """A composition with m+n = 6 or 7, an order p <= 3, and up to 40 of
    its sweep indices."""
    left = draw(st.sampled_from((6, 7)))
    blocks = []
    for _ in range(3):
        blocks.append(draw(st.integers(0, left)))
        left -= blocks[-1]
    P = AlgebraParams(*blocks, left)
    indices = draw(st.lists(st.sampled_from(sweep_indices(P)), min_size=1, max_size=40, unique=True))
    return P, draw(st.integers(1, 3)), indices


@settings(max_examples=30, deadline=None)
@given(_spot_checks())
def test_relations_hold_at_sampled_indices_past_the_exhaustive_range(spot):
    P, p, indices = spot
    for kind in BASIS_KINDS:
        report = relation_report(P, kind, *ladder_operators(P, p, kind), indices)
        assert report.checked == checks_at(indices)
        assert report.failures == [], (P.as_tuple(), p, kind)


def test_a_spot_check_past_the_exhaustive_range_sees_a_rule_fault(monkeypatch):
    P, p = AlgebraParams(2, 1, 2, 1), 2
    monkeypatch.setattr(fock, "_ladder_rule", _faulty_rule(_RULE_FAULTS["weight"]))
    ladder_operators.cache_clear()
    try:
        plus, minus = ladder_operators(P, p, "orthonormal")
    finally:
        ladder_operators.cache_clear()
    failures = relation_report(P, "spot", plus, minus, [(1, 2, 1), (2, 3, 4)]).failures
    assert {f.indices for f in failures} == {(1, 2, 1)}


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


def _variant_operators(P, p, variant):
    """Every orthonormal operator of a slot variant, each built directly by
    ``fock.operator_matrix`` (so a planted ``operator_matrix`` reaches it)."""
    return tuple(
        [
            fock.operator_matrix(GeneratorId(i, sign), P, p, "orthonormal", variant)
            for i in P.operator_indices()
        ]
        for sign in "+-"
    )


def _reference_discrimination(P, p):
    """The discrimination rebuilt from a full verification per variant and
    its ``first_relation_failure``: ``verify_representation`` for the
    corrected variant; the full orthonormal sweep, then the vacuum and
    adjointness suites, on every operator of a theta-slot variant."""
    outcomes = []
    for variant in ft_variants():
        if variant == FT_CORRECTED:
            report = verify_representation(P, p)
        else:
            ops = _variant_operators(P, p, variant)
            suites = [
                relation_report(P, "relations-orthonormal", *ops, sweep_indices(P)),
                fock._vacuum_suite(P, p, "orthonormal", *ops),
                fock._adjointness_suite(P, *ops),
            ]
            report = RepresentationReport(P.as_tuple(), p, variant.label, suites)
        first = report.first_relation_failure
        failure = None if first is None else {"suite": first[0], **first[1].to_json()}
        outcomes.append(VariantOutcome(variant.label, report.passed, failure))
    return DiscriminationReport(P.as_tuple(), p, outcomes)


def test_discrimination_equals_the_full_verification_of_every_variant():
    points = [(P, p) for P in small_sweep(3) for p in (1, 2, 3)]
    points += [(AlgebraParams(*blocks), p) for blocks in ((1, 1, 1, 1), (2, 0, 1, 1)) for p in (3, 4)]
    for P, p in points:
        got = ft_variant_discrimination(P, p).to_json()
        assert got == _reference_discrimination(P, p).to_json(), (P, p)


def _recording_operators(honest, seen):
    def suite(*args):
        seen.append(args[-2:])  # the (raising, lowering) operators checked
        return honest(*args)

    return suite


def test_theta_slot_sweeps_stop_at_their_first_failure(monkeypatch):
    P, p = AlgebraParams(1, 1, 1, 1), 3
    checked = {name: [] for name in ("_vacuum_suite", "_adjointness_suite")}
    for name, seen in checked.items():
        monkeypatch.setattr(fock, name, _recording_operators(getattr(fock, name), seen))
    brackets = [0]
    honest_bracket = algebra.graded_bracket

    def counted(x, y):
        brackets[0] += 1
        return honest_bracket(x, y)

    monkeypatch.setattr(algebra, "graded_bracket", counted)
    honest_failures, starts = fock.relation_failures, []

    def spy(*args):
        starts.append(brackets[0])
        yield from honest_failures(*args)

    monkeypatch.setattr(fock, "relation_failures", spy)
    report = ft_variant_discrimination(P, p)
    assert report.corrected_only_passes
    # only the corrected variant's verification runs these suites
    ortho, unnorm = (ladder_operators(P, p, kind) for kind in BASIS_KINDS)
    assert checked == {"_vacuum_suite": [ortho, unnorm], "_adjointness_suite": [ortho]}
    per_sweep = [b - a for a, b in zip(starts, starts[1:] + brackets)]
    # for scale, one theta-slot sweep run in full: it fails more than once
    plus, minus = _variant_operators(P, p, ft_variants()[3])
    brackets[0] = 0
    assert len(list(honest_failures(P, plus, minus, sweep_indices(P)))) > 1
    full = brackets[0]
    assert len(per_sweep) == 3 and all(0 < n < full / 2 for n in per_sweep), (per_sweep, full)


def _rescaled_first_orbital(honest):
    """Orthonormal a_1^+ times 2 and a_1^- times 1/2: an automorphism of the
    triple relations that leaves [a^-, a^+]|0> as it is, but breaks
    adjointness."""

    def planted(gid, params, p, basis_kind="orthonormal", ft_variant=FT_CORRECTED):
        op = honest(gid, params, p, basis_kind, ft_variant)
        if basis_kind != "orthonormal" or gid.index != 1:
            return op
        return op * (2 if gid.sign == "+" else Fraction(1, 2))

    return planted


def test_a_variant_whose_sweep_passes_runs_its_other_suites(monkeypatch):
    P, p = AlgebraParams(1, 1, 1, 0), 2
    monkeypatch.setattr(fock, "operator_matrix", _rescaled_first_orbital(fock.operator_matrix))
    ladder_operators.cache_clear()
    try:
        report = ft_variant_discrimination(P, p)
        reference = _reference_discrimination(P, p)
    finally:
        ladder_operators.cache_clear()
    assert [(o.passed, o.relation_failure) for o in report.outcomes] == [(False, None)] * 4
    assert report.to_json() == reference.to_json()


@pytest.mark.parametrize("variant", ["x", None, ("lambda", "theta")])
def test_a_variant_that_is_not_an_ftildevariant_is_a_type_error(variant):
    P = AlgebraParams(1, 1, 1, 1)
    with pytest.raises(TypeError, match="FTildeVariant"):
        operator_matrix(GeneratorId(4, "+"), P, 2, "orthonormal", variant)


@pytest.mark.parametrize("blocks", [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1)])
@pytest.mark.parametrize("variant", ["x", None])
def test_the_variant_is_checked_whatever_the_composition(blocks, variant):
    # checked before the generator: with m+n = 0 the index 1 is out of range
    P = AlgebraParams(*blocks)
    with pytest.raises(TypeError, match="ft_variant must be an FTildeVariant"):
        operator_matrix(GeneratorId(1, "+"), P, 1, "orthonormal", variant)


def test_single_quantum_state_layout():
    P = AlgebraParams(1, 1, 1, 1)
    assert single_quantum_state(P, 1) == (1, 0, 0, 0)
    assert single_quantum_state(P, 4) == (0, 0, 0, 1)
    with pytest.raises(ValueError):
        single_quantum_state(P, 5)


_INDEX_TAKERS = {
    "index_grade": lambda P, i: P.index_grade(i),
    "basis.index_grade": lambda P, i: enumerate_basis(P, 2).index_grade(i),
    "single_quantum_state": single_quantum_state,
    "GeneratorId": lambda P, i: GeneratorId(i, "+").grade(P),
}


@pytest.mark.parametrize("bad", [True, False, 1.5, 2.0, Fraction(2)])
@pytest.mark.parametrize("taker", sorted(_INDEX_TAKERS))
def test_an_index_that_is_not_an_int_is_rejected(taker, bad):
    P = AlgebraParams(1, 1, 1, 1)
    assert _INDEX_TAKERS[taker](P, 2) is not None  # an int in range is taken
    with pytest.raises(ValueError):
        _INDEX_TAKERS[taker](P, bad)


def test_a_basis_index_out_of_range_is_rejected():
    basis = enumerate_basis(AlgebraParams(1, 1, 1, 1), 2)
    # the degree of the last state, (sum l + sum theta, sum l + sum lambda) mod 2
    r, l, theta, lam = basis.occupations[-1]
    assert basis.index_grade(len(basis) - 1) == Grade((l + theta) % 2, (l + lam) % 2)
    for bad in (-1, len(basis)):
        with pytest.raises(ValueError):
            basis.index_grade(bad)


# sha256 of the JSON list of operator_matrix(...).to_json() over
# generator_ids(params), by (blocks, p, basis kind, f-tilde slot variant)
_LADDER_DIGESTS = {
    ((1, 1, 1, 1), 1, "unnormalized", "ft+->lambda,ft-->lambda"): "55da5278dac949ffa619861ed47861971dae4f94b0cf81433877a963b0abfcb0",
    ((1, 1, 1, 1), 1, "orthonormal", "ft+->lambda,ft-->lambda"): "55da5278dac949ffa619861ed47861971dae4f94b0cf81433877a963b0abfcb0",
    ((1, 1, 1, 1), 1, "orthonormal", "ft+->lambda,ft-->theta"): "4d0705601e6036812d7af63f871e1b14eb20d72a4f23925580e41bee8fec4bf8",
    ((1, 1, 1, 1), 1, "orthonormal", "ft+->theta,ft-->lambda"): "0660eba665ac7fecb3d289c3464ff910bd71bac34acd6c99aa65d69218bbc57a",
    ((1, 1, 1, 1), 1, "orthonormal", "ft+->theta,ft-->theta"): "57ebd5453d54c7f5d4b0e55f2a9b3d6cb43233012e91fe746a3b78becd671503",
    ((1, 1, 1, 1), 2, "unnormalized", "ft+->lambda,ft-->lambda"): "f57c5a1e9f82d2097d2800e9f6ebf7c931a503990bdf5436fe50dc1cc3672fd7",
    ((1, 1, 1, 1), 2, "orthonormal", "ft+->lambda,ft-->lambda"): "e5e847cdd2fba1af42e3678e2f754be13ebd53ed4ac1034a1e8f417003445c06",
    ((1, 1, 1, 1), 2, "orthonormal", "ft+->lambda,ft-->theta"): "24a5414eb84b812dc79e7b18ac2855cc0940925f6d493521537b4d2df6f7dd8d",
    ((1, 1, 1, 1), 2, "orthonormal", "ft+->theta,ft-->lambda"): "5f60ca3ffdf0e60c83489add43190ba6e6a30ea605e1d646ca4bdf276c174ae7",
    ((1, 1, 1, 1), 2, "orthonormal", "ft+->theta,ft-->theta"): "ccf6bbf8a20715f94225acf36ff3097f60f6559b6436dfe6f5493e98b555c2c9",
    ((1, 1, 1, 1), 3, "unnormalized", "ft+->lambda,ft-->lambda"): "47789eb48fa45be5122e8888b3e0d8812c22eb381db79cf949b6cde24750f035",
    ((1, 1, 1, 1), 3, "orthonormal", "ft+->lambda,ft-->lambda"): "03fbde0b6d28808731f19714d53819f091163188b488e9b3d3f72f0791e98944",
    ((1, 1, 1, 1), 3, "orthonormal", "ft+->lambda,ft-->theta"): "bde6f934f4d4caabc63ccd3aa4ff9fd5db902d5df25ac19caca04d0fdda176df",
    ((1, 1, 1, 1), 3, "orthonormal", "ft+->theta,ft-->lambda"): "f5f8060b08a5fe639e34ef22840eafa40f4c980337802d0f9ea7279b425e9311",
    ((1, 1, 1, 1), 3, "orthonormal", "ft+->theta,ft-->theta"): "c10b6a3ee785a57d7c6748eb039698afb6dcefcb2b9c0a82a8efe2e4296489d7",
    ((2, 0, 1, 1), 1, "unnormalized", "ft+->lambda,ft-->lambda"): "e655d92dce98322b7b2e1bf478862dcd3429f834253b057a88a3555fda7490b1",
    ((2, 0, 1, 1), 1, "orthonormal", "ft+->lambda,ft-->lambda"): "e655d92dce98322b7b2e1bf478862dcd3429f834253b057a88a3555fda7490b1",
    ((2, 0, 1, 1), 1, "orthonormal", "ft+->lambda,ft-->theta"): "ca22def42e8adb9d0a923685cea392df121abdcabe14de64de8ff8bcbba1e0c0",
    ((2, 0, 1, 1), 1, "orthonormal", "ft+->theta,ft-->lambda"): "42ecf06acaf1f10ddf0757a0f53f1ab76de6eed9781cb62002e4fee54d493ec0",
    ((2, 0, 1, 1), 1, "orthonormal", "ft+->theta,ft-->theta"): "262698980650063eb39b1ee77baa1cdef6ec5035b47eb2d8b66d895d489d1c5c",
    ((2, 0, 1, 1), 2, "unnormalized", "ft+->lambda,ft-->lambda"): "9ff1e19f99fdeff5b43af45bb7463fb6ec2a393d61f6bfaa93e399bf1d5f0d81",
    ((2, 0, 1, 1), 2, "orthonormal", "ft+->lambda,ft-->lambda"): "d3e14ceeafaeda5d9349bd3157ef613a6f14879c50b176bc1f2629eb4f0a7539",
    ((2, 0, 1, 1), 2, "orthonormal", "ft+->lambda,ft-->theta"): "8d794a81f257a8bdf29e27baeac60dac3ab1436f2bffafb848bf80506925a011",
    ((2, 0, 1, 1), 2, "orthonormal", "ft+->theta,ft-->lambda"): "8277bb3f5d1cef336abf3ee36811813fbc9168953701a50e44d5ccbf1a0cfc1f",
    ((2, 0, 1, 1), 2, "orthonormal", "ft+->theta,ft-->theta"): "d9cb108a24c56199505520a1376c90c909a6001b441a21ea01ef275196df8442",
    ((2, 0, 1, 1), 3, "unnormalized", "ft+->lambda,ft-->lambda"): "a0aededd27eaff60a35a8f3a46e81a0d5626ccab01eed8d5849546500c8aa8d0",
    ((2, 0, 1, 1), 3, "orthonormal", "ft+->lambda,ft-->lambda"): "5bf42cf1207d2e32f45c68d235f11f5d68f31005d4af49dfe2e41066f3445ac3",
    ((2, 0, 1, 1), 3, "orthonormal", "ft+->lambda,ft-->theta"): "155c9478e9df210c1c5701ee4b8e4cbeca7e9a92b2c37398207a23dae77ac81c",
    ((2, 0, 1, 1), 3, "orthonormal", "ft+->theta,ft-->lambda"): "938dadeebb9a010e3c6e546766fd8b6e56792949667eced4b6a947b48e9fc3b3",
    ((2, 0, 1, 1), 3, "orthonormal", "ft+->theta,ft-->theta"): "b860e16f714f745802e58e7a447030d2cd4d9b6404336e51c724af8fd3067ede",
    ((1, 1, 2, 2), 1, "unnormalized", "ft+->lambda,ft-->lambda"): "4e96cc84ea1495c012495c8c6e747bab79e9f3ddf58702318fee0da7c1eb04cb",
    ((1, 1, 2, 2), 1, "orthonormal", "ft+->lambda,ft-->lambda"): "4e96cc84ea1495c012495c8c6e747bab79e9f3ddf58702318fee0da7c1eb04cb",
    ((1, 1, 2, 2), 1, "orthonormal", "ft+->lambda,ft-->theta"): "ce01e90d741c7253e6349d42f7135091df5d8ccf02d915f96acb6e06e71a57ae",
    ((1, 1, 2, 2), 1, "orthonormal", "ft+->theta,ft-->lambda"): "47a1eabb3481ee7c2ae98a2017a5f8e89472a8525c7ce28cc9ca15ab0af70234",
    ((1, 1, 2, 2), 1, "orthonormal", "ft+->theta,ft-->theta"): "639565320635e3b347e790bbb2205ecaa1f86a16e0b8f1b884bbf82440609a57",
    ((1, 1, 2, 2), 2, "unnormalized", "ft+->lambda,ft-->lambda"): "06b282ddf0f26fe2dac7b5760af32cd07b331ee665042c64f731f6b8a3487814",
    ((1, 1, 2, 2), 2, "orthonormal", "ft+->lambda,ft-->lambda"): "1812692c4112ba75e9e72431c0fb82a33787a9ec27e414a031aa78efd3595097",
    ((1, 1, 2, 2), 2, "orthonormal", "ft+->lambda,ft-->theta"): "7a3fb05a880e43e10832d4de764019771f216d21a64a9ee9fe1a60fcf1947312",
    ((1, 1, 2, 2), 2, "orthonormal", "ft+->theta,ft-->lambda"): "67d3e69ddea7ab9b3d65cf3062d1c7012cdba9286588bdf7da1b819a371f4823",
    ((1, 1, 2, 2), 2, "orthonormal", "ft+->theta,ft-->theta"): "aff1ba87680fa90a0c945e6a9f583ad769b65167af04689543a22d1e5ec91ce0",
    ((1, 1, 2, 2), 3, "unnormalized", "ft+->lambda,ft-->lambda"): "74f3133a0343b00a0951f01ab77c08238afee2cbf1fd6da69110c09282fabcf0",
    ((1, 1, 2, 2), 3, "orthonormal", "ft+->lambda,ft-->lambda"): "49c6ffeea9c74dd5ba92ff0aba44f6a9c337a4ac94ac6a0799aee155c73740a6",
    ((1, 1, 2, 2), 3, "orthonormal", "ft+->lambda,ft-->theta"): "8ecf3065f02ca4f87deec2f75a22ad5188c09257b9e18f29fe09747c20fe799a",
    ((1, 1, 2, 2), 3, "orthonormal", "ft+->theta,ft-->lambda"): "d8d31601a7af31f29e600c0822ea3e3e2dd7022c61023a070b08729aa592c8e9",
    ((1, 1, 2, 2), 3, "orthonormal", "ft+->theta,ft-->theta"): "c8cdf2ceb77ffceebc269bb2d12593c1188176c26cdf954d47d24043cb59e47e",
}


def test_ladder_matrices_are_pinned():
    for (blocks, p, kind, label), digest in _LADDER_DIGESTS.items():
        P = AlgebraParams(*blocks)
        (variant,) = [v for v in ft_variants() if v.label == label]
        payload = [operator_matrix(g, P, p, kind, variant).to_json() for g in generator_ids(P)]
        got = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
        assert got == digest, (blocks, p, kind, label)
    assert len(_LADDER_DIGESTS) == 3 * 3 * 5


# sha256 of the JSON of the vacuum-orthonormal suite of a theta-slot variant,
# by (blocks, p, f-tilde slot variant)
_THETA_VACUUM_DIGESTS = {
    ((1, 1, 1, 1), 2, "ft+->lambda,ft-->theta"): "d3e14c381254affc8460032ab318869dd4e4215088102deb43528905de02a6c7",
    ((1, 1, 1, 1), 2, "ft+->theta,ft-->lambda"): "d4de09181e4aa64fcfd5c80ca3005cead29b52bcce41ba73726e3309b8c9e5eb",
    ((1, 1, 1, 1), 2, "ft+->theta,ft-->theta"): "d4de09181e4aa64fcfd5c80ca3005cead29b52bcce41ba73726e3309b8c9e5eb",
    ((1, 1, 1, 1), 3, "ft+->lambda,ft-->theta"): "5d3e192b0556f11547a4572833dadbd50f511126c608623c2aea1615eac706ca",
    ((1, 1, 1, 1), 3, "ft+->theta,ft-->lambda"): "02e825e6a05854a5f5eed2de6bd0d6e78cba31b3a6de038ecdbbba3bbe5e227f",
    ((1, 1, 1, 1), 3, "ft+->theta,ft-->theta"): "02e825e6a05854a5f5eed2de6bd0d6e78cba31b3a6de038ecdbbba3bbe5e227f",
    ((1, 1, 2, 2), 2, "ft+->lambda,ft-->theta"): "6d3ec6acf0586690cd275cad51e34947979129fb8fc94d0e52d499f953bf5360",
    ((1, 1, 2, 2), 2, "ft+->theta,ft-->lambda"): "65b4e88068353d7aed08fd2b408871295632164c9840874b2f90c45795f51c43",
    ((1, 1, 2, 2), 2, "ft+->theta,ft-->theta"): "65b4e88068353d7aed08fd2b408871295632164c9840874b2f90c45795f51c43",
    ((1, 1, 2, 2), 3, "ft+->lambda,ft-->theta"): "d2e5bd6507923349a8bc6e064f185a521e25fd7e3eb23cd57604746f69960ca6",
    ((1, 1, 2, 2), 3, "ft+->theta,ft-->lambda"): "b80ec8b963084055b4c574cb7462684d41ebee0b34e1d70683c1f1666280f8f6",
    ((1, 1, 2, 2), 3, "ft+->theta,ft-->theta"): "b80ec8b963084055b4c574cb7462684d41ebee0b34e1d70683c1f1666280f8f6",
}


def test_theta_variant_vacuum_failures_are_pinned():
    for (blocks, p, label), digest in _THETA_VACUUM_DIGESTS.items():
        (variant,) = [v for v in ft_variants() if v.label == label]
        P = AlgebraParams(*blocks)
        suite = fock._vacuum_suite(P, p, "orthonormal", *_variant_operators(P, p, variant))
        assert suite.failures
        got = hashlib.sha256(json.dumps(suite.to_json()).encode()).hexdigest()
        assert got == digest, (blocks, p, label)


def _vacuum_leak(index):
    """Give the lowering operator of ``index`` the image a^-|0> = |e_index>,
    which no correct or slot-variant rule has."""
    honest = fock.operator_matrix

    def planted(gid, params, p, basis_kind="orthonormal", ft_variant=FT_CORRECTED):
        op = honest(gid, params, p, basis_kind, ft_variant)
        if gid != GeneratorId(index, "-"):
            return op
        entries = {(row, col): c for row, col, c in op.items()}
        entries[(op.basis.index_of(single_quantum_state(params, index)), 0)] = RadicalSum(1)
        return fock.SparseOperator(op.basis, entries, op.grade)

    return planted


# sha256 of the JSON list of the vacuum suites of both basis kinds at
# (1,1,1,1), p=2, under _vacuum_leak(index).  The leak is the only way to
# reach the a_j^+ a_i^- |0> term of the bracket, so these records pin its
# sign: minus for every pair at the even index 1, plus and minus at the odd
# index 3.
_LEAK_DIGESTS = {
    1: "3f4cf967cb4a045ae7d8df49d5ba7ca14ff39068daff9c98e43428c8c360b8f4",
    3: "0a99f59e46b6f17414abedc80b0a434c81c2aed16653663606da26af03677188",
}


@pytest.mark.parametrize("index", sorted(_LEAK_DIGESTS))
def test_vacuum_suite_sees_a_lowering_leak(monkeypatch, index):
    monkeypatch.setattr(fock, "operator_matrix", _vacuum_leak(index))
    ladder_operators.cache_clear()
    try:
        rep = verify_representation(AlgebraParams(1, 1, 1, 1), 2)
    finally:
        ladder_operators.cache_clear()
    payload = [rep.suite(f"vacuum-{kind}").to_json() for kind in BASIS_KINDS]
    assert all(suite["failures"] for suite in payload)
    got = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
    assert got == _LEAK_DIGESTS[index]


# Planted faults in the ladder rule, one part of it each.  A fault maps
# (gid, params, p, basis_kind, occ, R, term) to the term the faulty rule
# gives, where term is the honest ``(coefficient, target)`` or None.


def _drop_l_sign(gid, params, p, kind, occ, R, term):
    """Fermionic sign without its (-1)**(sum l) factor."""
    if term is None or gid.index <= params.m or not sum(occ[params.m1 : params.m]) % 2:
        return term
    return term[0] * -1, term[1]


def _raising_weight(gid, params, p, kind, occ, R, term):
    """Orthonormal a_1^+ with weight occ+2 in place of occ+1 under the root."""
    if term is None or kind != "orthonormal" or gid != GeneratorId(1, "+"):
        return term
    return term[0] * RadicalSum.sqrt_fraction(Fraction(occ[0] + 2, occ[0] + 1)), term[1]


def _wrong_slot(gid, params, p, kind, occ, R, term):
    """a_1^+ raises the occupation of orbital 2 in place of orbital 1."""
    if term is None or gid != GeneratorId(1, "+"):
        return term
    return term[0], occ[:1] + (occ[1] + 1,) + occ[2:]


def _early_quotient(gid, params, p, kind, occ, R, term):
    """Raising drops its term one quantum below the cap, at R = p - 1 too."""
    return None if gid.sign == "+" and R >= p - 1 else term


def _lowering_without_room(gid, params, p, kind, occ, R, term):
    """Unnormalized lowering by sign*weight, without the room factor p-R+1."""
    if term is None or kind != "unnormalized" or gid.sign != "-":
        return term
    return term[0] // (p - R + 1), term[1]


def _faulty_rule(fault):
    honest = fock._ladder_rule

    def rule(gid, params, p, basis_kind, ft_variant):
        act = honest(gid, params, p, basis_kind, ft_variant)
        return lambda occ, R: fault(gid, params, p, basis_kind, occ, R, act(occ, R))

    return rule


# sha256 of the JSON of verify_representation((1,1,1,1), 2) under each fault,
# recorded before the grade moved into the sparse kernel.
_RULE_FAULT_DIGESTS = {
    "sign": "c7dc846e884d76be7b798cfbac9744fc49932ae3b7a3fb31293130d5f80f6cb3",
    "weight": "ef829d9cf79e3cddfeaca5f90b431d2fe95ed5a08567299167c149b6c2ecfe26",
    "slot": "9a4ab8189e8350491f6bd683e885c79d5422e116545b12cc7e29fff9947f5c43",
    "quotient": "f23ef7950e3c53936a6db764482ef31144b07ded7a5fbcfa69d3ba2f93478ce7",
    "lowering-factor": "30ff73b0dd44d1fac9da2b8d79e08ca147112f699d591d5c879072e42c08df9a",
}
_RULE_FAULTS = {
    "sign": _drop_l_sign,
    "weight": _raising_weight,
    "slot": _wrong_slot,
    "quotient": _early_quotient,
    "lowering-factor": _lowering_without_room,
}


@pytest.mark.parametrize("name", sorted(_RULE_FAULTS))
def test_every_part_of_the_ladder_rule_is_checked(monkeypatch, name):
    monkeypatch.setattr(fock, "_ladder_rule", _faulty_rule(_RULE_FAULTS[name]))
    ladder_operators.cache_clear()
    try:
        rep = verify_representation(AlgebraParams(1, 1, 1, 1), 2)
    finally:
        ladder_operators.cache_clear()
    assert not rep.passed
    assert rep.first_relation_failure is not None
    got = hashlib.sha256(json.dumps(rep.to_json()).encode()).hexdigest()
    assert got == _RULE_FAULT_DIGESTS[name]


# At p = 1 every state has total 0 or 1.  The sign fault acts only where an
# odd operator moves a quantum beside an l quantum, at total 2, and the
# lowering-factor fault acts on the unnormalized matrices only; so neither
# changes the orthonormal p = 1 matrices.
_ORDER_ONE_SEES = {"sign": False, "weight": True, "slot": True, "quotient": True,
                   "lowering-factor": False}


@pytest.mark.parametrize("name", sorted(_RULE_FAULTS))
@pytest.mark.parametrize("blocks", [(1, 1, 1, 1), (2, 0, 1, 1), (0, 2, 2, 0)])
def test_order_one_comparison_fails_under_faults_that_reach_order_one(monkeypatch, name, blocks):
    monkeypatch.setattr(fock, "_ladder_rule", _faulty_rule(_RULE_FAULTS[name]))
    assert order_one_defining_comparison(AlgebraParams(*blocks)) != _ORDER_ONE_SEES[name]


def test_every_ladder_operator_is_monomial():
    """At most one entry per column, for both basis kinds and every slot
    variant: the conjugation check compares key sets on this ground."""
    def monomial(op):
        return len({j for (_, j) in op._entries}) == op.nnz

    for P in small_sweep(4):
        if max(P.as_tuple()) > 2:
            continue
        for p in (1, 2, 3):
            for kind in BASIS_KINDS:
                plus, minus = ladder_operators(P, p, kind)
                assert all(map(monomial, plus + minus)), (P, p, kind)
            for variant in ft_variants():
                for gid in generator_ids(P):
                    assert monomial(operator_matrix(gid, P, p, "orthonormal", variant)), (
                        P, p, variant.label, gid
                    )


# ------------------------------------------ the colour-symmetric power oracle
#
# The order-p module is the p-th colour-symmetric power of the defining
# module.  Its states are the monomials x^n = x_0^n_0 x_1^n_1 ... x_N^n_N
# with n_0 = p - R, in variables of degree d_i that commute up to
# eps(d_i, d_j) = (-1)**(d_i . d_j); a variable with d . d = 1 squares to
# zero.  The ladder operators are the derivations a_i^+ = x_i d/dx_0 and
# a_i^- = x_0 d/dx_i, on the orthonormal basis x^n / sqrt(prod n_j!) or the
# unnormalized basis (p! / n_0!) x^n.  The matrices below follow from the
# commutation factor alone; nothing here calls the ladder rule.

_BLOCK_DEGREES = ((0, 0), (1, 1), (1, 0), (0, 1))  # b, bt, f, ft


def _variable_degrees(P):
    """d_0, ..., d_{m+n}, from the block sizes."""
    sizes = (P.m1, P.m2, P.n1, P.n2)
    return [(0, 0)] + [d for d, size in zip(_BLOCK_DEGREES, sizes) for _ in range(size)]


def _eps(g, h):
    return -1 if (g[0] * h[0] + g[1] * h[1]) % 2 else 1


def _passing_sign(v, n, d):
    """The factor x_v (or d/dx_v) picks up passing x_0^n_0 ... x_{v-1}^n_{v-1}."""
    return prod(_eps(d[v], d[j]) ** n[j] for j in range(v))


def _shift(n, v, by):
    return n[:v] + (n[v] + by,) + n[v + 1 :]


def _derivation(n, up, down, d):
    """x_up d/dx_down applied to x^n: (integer coefficient, exponents) or None."""
    if not n[down]:
        return None
    coeff, n = _passing_sign(down, n, d) * n[down], _shift(n, down, -1)
    if n[up] and _eps(d[up], d[up]) == -1:  # x_up squares to zero
        return None
    return coeff * _passing_sign(up, n, d), _shift(n, up, 1)


def _scale_square(n, p, kind):
    """The square of the factor c_n of the basis vector c_n x^n."""
    if kind == "orthonormal":
        return Fraction(1, prod(factorial(k) for k in n))
    return Fraction(factorial(p), factorial(n[0])) ** 2


def _symmetric_power_matrix(gid, P, p, kind):
    """{(row, col): coefficient} of a generator on the order-p basis."""
    basis, d = enumerate_basis(P, p), _variable_degrees(P)
    up, down = (gid.index, 0) if gid.sign == "+" else (0, gid.index)
    entries = {}
    for col, occ in enumerate(basis.occupations):
        n = (p - sum(occ),) + occ
        term = _derivation(n, up, down, d)
        if term is not None:
            coeff, image = term
            row = basis.index_of(image[1:])
            # c_n x^n maps to coeff x^image = coeff (c_n / c_image) (c_image x^image)
            ratio = _scale_square(n, p, kind) / _scale_square(image, p, kind)
            entries[row, col] = RadicalSum.sqrt_fraction(ratio) * coeff
    return entries


def _symmetric_power_mismatches(P, p):
    """The (generator, basis kind) pairs whose operator matrix differs from
    the colour-symmetric power's."""
    return [
        (gid, kind)
        for kind in BASIS_KINDS
        for gid in generator_ids(P)
        if {(r, c): v for r, c, v in operator_matrix(gid, P, p, kind).items()}
        != _symmetric_power_matrix(gid, P, p, kind)
    ]


def test_every_ladder_matrix_is_the_colour_symmetric_power():
    compositions = list(small_sweep(4))
    assert len(compositions) == 70
    failing = [
        (P.as_tuple(), p)
        for P in compositions
        for p in range(1, 5)
        if _symmetric_power_mismatches(P, p)
    ]
    assert failing == []


@pytest.mark.parametrize("name", sorted(_RULE_FAULTS))
def test_the_symmetric_power_oracle_catches_each_rule_fault(monkeypatch, name):
    monkeypatch.setattr(fock, "_ladder_rule", _faulty_rule(_RULE_FAULTS[name]))
    assert _symmetric_power_mismatches(AlgebraParams(1, 1, 1, 1), 2)


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


# ------------------------------------------- orthonormal sweep by conjugation


def _full_orthonormal_sweep(P, p):
    plus, minus = ladder_operators(P, p, "orthonormal")
    return relation_report(P, "relations-orthonormal", plus, minus, sweep_indices(P))


def test_orthonormal_sweep_equals_the_direct_sweep():
    points = [(P, p) for P in small_sweep(3) for p in (1, 2, 3)]
    for P, p in points + [(AlgebraParams(1, 1, 1, 1), 4)]:
        got = verify_representation(P, p).suite("relations-orthonormal")
        assert got.to_json() == _full_orthonormal_sweep(P, p).to_json()


def _double_one_entry(honest):
    """Double the first entry of orthonormal a_1^+ and leave its
    unnormalized partner as it is."""

    def planted(gid, params, p, basis_kind="orthonormal", ft_variant=FT_CORRECTED):
        op = honest(gid, params, p, basis_kind, ft_variant)
        if basis_kind != "orthonormal" or gid != GeneratorId(1, "+"):
            return op
        entries = {(row, col): c for row, col, c in op.items()}
        first = min(entries)
        entries[first] = entries[first] * 2
        return fock.SparseOperator(op.basis, entries, op.grade)

    return planted


def test_an_orthonormal_only_fault_runs_the_full_sweep(monkeypatch):
    P, p = AlgebraParams(1, 1, 1, 1), 2
    monkeypatch.setattr(fock, "operator_matrix", _double_one_entry(fock.operator_matrix))
    honest_report, swept = fock.relation_report, []

    def spy(params, label, plus, minus, indices):
        swept.append((label, len(indices)))
        return honest_report(params, label, plus, minus, indices)

    monkeypatch.setattr(fock, "relation_report", spy)
    ladder_operators.cache_clear()
    try:
        assert not fock._orthonormal_is_conjugate(*_both_kinds(P, p))
        rep = verify_representation(P, p)
    finally:
        ladder_operators.cache_clear()
    full = len(sweep_indices(P))
    assert swept == [("relations-unnormalized", full), ("relations-orthonormal", full)]
    assert rep.suite("relations-unnormalized").passed
    label, failure = rep.first_relation_failure
    assert label == "relations-orthonormal"
    assert (failure.relation, failure.indices) == ("rel1+", (1, 2))


@pytest.mark.parametrize("name", ["quotient", "sign"])
def test_a_fault_in_both_kinds_keeps_the_shortcut_exact(monkeypatch, name):
    P, p = AlgebraParams(1, 1, 1, 1), 2
    monkeypatch.setattr(fock, "_ladder_rule", _faulty_rule(_RULE_FAULTS[name]))
    ladder_operators.cache_clear()
    try:
        assert fock._orthonormal_is_conjugate(*_both_kinds(P, p))
        got = verify_representation(P, p).suite("relations-orthonormal")
        forced = _full_orthonormal_sweep(P, p)
    finally:
        ladder_operators.cache_clear()
    assert got.failures
    assert got.to_json() == forced.to_json()


# ------------------------------------------- the rational conjugation check


def _radical_conjugation(P, p):
    """The conjugation check in RadicalSum arithmetic: both kinds declare the
    same grades and nonzero keys, and O[i,j] * n_i == U[i,j] * n_j for every
    entry, with n = norm_factor."""
    n = [norm_factor(occ, P.m, p) for occ in enumerate_basis(P, p).occupations]
    kinds = (itertools.chain(*ladder_operators(P, p, kind)) for kind in BASIS_KINDS)
    for ortho, unnorm in zip(*kinds):
        o = {(i, j): c for i, j, c in ortho.items()}
        u = {(i, j): c for i, j, c in unnorm.items()}
        if ortho.grade != unnorm.grade or o.keys() != u.keys():
            return False
        if any(o[i, j] * n[i] != u[i, j] * n[j] for i, j in o):
            return False
    return True


def test_the_rational_check_agrees_with_the_radical_one():
    points = [(P, p) for P in small_sweep(4) for p in range(1, 5)]
    assert all(fock._orthonormal_is_conjugate(*_both_kinds(P, p)) for P, p in points)
    assert all(_radical_conjugation(P, p) for P, p in points)


@pytest.mark.parametrize("name", sorted(_RULE_FAULTS))
def test_the_rational_check_agrees_with_the_radical_one_under_each_rule_fault(monkeypatch, name):
    monkeypatch.setattr(fock, "_ladder_rule", _faulty_rule(_RULE_FAULTS[name]))
    # the slot fault moves a quantum onto orbital 2, which must be bosonic
    points = [(P, p) for P in small_sweep(3) if P.m >= 2 for p in (2, 3)]
    points += [(AlgebraParams(*blocks), p) for blocks in ((1, 1, 1, 1), (2, 0, 1, 1)) for p in (2, 4)]
    ladder_operators.cache_clear()
    try:
        verdicts = [
            (fock._orthonormal_is_conjugate(*_both_kinds(P, p)), _radical_conjugation(P, p))
            for P, p in points
        ]
    finally:
        ladder_operators.cache_clear()
    assert all(rational == radical for rational, radical in verdicts)
    # a sign or quotient fault acts alike on both kinds and keeps the
    # conjugation; the others break it, so both checks must see them
    assert all(rational for rational, _ in verdicts) == (name in ("sign", "quotient"))


def _replace_first_entry(honest, change, target=GeneratorId(1, "+")):
    """Orthonormal ``target`` (a_1^+) with its first entry c replaced by
    change(c), its unnormalized partner left as it is."""

    def planted(gid, params, p, basis_kind="orthonormal", ft_variant=FT_CORRECTED):
        op = honest(gid, params, p, basis_kind, ft_variant)
        if basis_kind != "orthonormal" or gid != target:
            return op
        entries = {(row, col): c for row, col, c in op.items()}
        first = min(entries)
        entries[first] = change(entries[first])
        return fock.SparseOperator(op.basis, entries, op.grade)

    return planted


def _record_sweeps(monkeypatch):
    """Record the label and length of every sweep ``fock`` runs."""
    honest_report, swept = fock.relation_report, []

    def spy(params, label, plus, minus, indices):
        swept.append((label, len(indices)))
        return honest_report(params, label, plus, minus, indices)

    monkeypatch.setattr(fock, "relation_report", spy)
    return swept


def _sweeps_under(monkeypatch, change, P, p):
    """verify_representation with the first entry of orthonormal a_1^+
    changed: (the check's verdict, its report, the labels and lengths of the
    sweeps it ran, the forced direct orthonormal sweep)."""
    monkeypatch.setattr(fock, "operator_matrix", _replace_first_entry(fock.operator_matrix, change))
    swept = _record_sweeps(monkeypatch)
    ladder_operators.cache_clear()
    try:
        verdict = fock._orthonormal_is_conjugate(*_both_kinds(P, p))
        swept.clear()
        rep = verify_representation(P, p)
        forced = _full_orthonormal_sweep(P, p)
    finally:
        ladder_operators.cache_clear()
    return verdict, rep, swept, forced


def test_a_sign_flip_that_squares_away_is_caught(monkeypatch):
    P, p = AlgebraParams(1, 1, 1, 1), 2
    honest = operator_matrix(GeneratorId(1, "+"), P, p)
    (row, col, value), *_ = honest.items()
    assert (-value) * (-value) == value * value  # squaring alone would miss the flip
    verdict, rep, swept, forced = _sweeps_under(monkeypatch, lambda c: -c, P, p)
    assert not verdict
    full = len(sweep_indices(P))
    assert swept == [("relations-unnormalized", full), ("relations-orthonormal", full)]
    ortho = rep.suite("relations-orthonormal")
    assert ortho.to_json() == forced.to_json()
    assert ortho.failures and all(1 in f.indices for f in ortho.failures)
    assert rep.suite("relations-unnormalized").passed
    # adjointness names the flipped entry, transposed, at twice its value
    (adjoint,) = rep.suite("adjointness").failures
    assert adjoint.indices == (1,)
    assert [(e["row"], e["col"]) for e in adjoint.residual["entries"]] == [(col, row)]
    assert adjoint.residual["entries"][0]["coeff"] == (value * -2).to_json()


# c + c*sqrt(3), its honest term stored first or last
_TWO_TERMS = [lambda c: c + c * RadicalSum.sqrt(3), lambda c: c * RadicalSum.sqrt(3) + c]


@pytest.mark.parametrize("two_terms", _TWO_TERMS)
def test_a_two_term_entry_declines_the_check(monkeypatch, two_terms):
    P, p = AlgebraParams(1, 1, 1, 1), 2
    assert len(two_terms(operator_matrix(GeneratorId(1, "+"), P, p).items()[0][2]).terms()) == 2
    verdict, rep, swept, forced = _sweeps_under(monkeypatch, two_terms, P, p)
    assert not verdict
    full = len(sweep_indices(P))
    assert swept == [("relations-unnormalized", full), ("relations-orthonormal", full)]
    assert rep.suite("relations-orthonormal").failures
    assert rep.suite("relations-orthonormal").to_json() == forced.to_json()


def test_the_check_compares_grades_and_nonzero_keys():
    # each half of the grade/key test must fail the check on its own
    P, p = AlgebraParams(1, 1, 1, 1), 2
    basis, (plus, minus), unnorm = _both_kinds(P, p)
    entries = {(row, col): c for row, col, c in plus[0].items()}
    assert fock._orthonormal_is_conjugate(basis, (plus, minus), unnorm)
    del entries[min(entries)]  # keys differ, grades agree
    dropped = fock.SparseOperator(basis, entries, plus[0].grade)
    regraded = fock.SparseOperator(basis, plus[0]._entries, Grade(1, 1))  # keys agree
    assert plus[0].grade == Grade(0, 0) and regraded._entries.keys() == plus[0]._entries.keys()
    for changed in (dropped, regraded):
        ortho = ((changed, *plus[1:]), minus)
        assert not fock._orthonormal_is_conjugate(basis, ortho, unnorm)


def test_each_kind_is_built_once_per_verification(monkeypatch):
    P, p = AlgebraParams(1, 1, 1, 1), 3
    honest, built = fock.operator_matrix, []

    def counted(gid, params, p, basis_kind="orthonormal", ft_variant=FT_CORRECTED):
        built.append((gid, basis_kind, ft_variant))
        return honest(gid, params, p, basis_kind, ft_variant)

    monkeypatch.setattr(fock, "operator_matrix", counted)
    ladder_operators.cache_clear()
    try:
        assert verify_representation(P, p).passed
        assert len(built) == len(set(built)) == 2 * 2 * 4
        built.clear()
        ladder_operators.cache_clear()
        assert ft_variant_discrimination(P, p).corrected_only_passes
    finally:
        ladder_operators.cache_clear()
    # the corrected variant, then the two f-tilde operators of each theta-slot variant
    ft = [GeneratorId(4, "+"), GeneratorId(4, "-")]
    assert [(gid, v) for gid, _, v in built[16:]] == [
        (gid, v) for v in ft_variants()[1:] for gid in ft
    ]


def test_slot_variants_share_every_operator_outside_the_ft_block():
    P, p = AlgebraParams(2, 2, 2, 2), 3
    corrected = ladder_operators(P, p, "orthonormal")
    for variant in ft_variants()[1:]:
        shared = fock._slot_variant_operators(P, p, variant)
        for sign, ops, ref in zip("+-", shared, corrected):
            for i, (op, base) in enumerate(zip(ops, ref), start=1):
                direct = operator_matrix(GeneratorId(i, sign), P, p, "orthonormal", variant)
                assert (op.grade, op.to_json()) == (direct.grade, direct.to_json())
                if i <= P.m + P.n1:
                    assert op is base
                    assert (direct.grade, direct.to_json()) == (base.grade, base.to_json())


# ------------------------------------------ family suites by the same route


_FAMILY_TAGS = {"rel1+": "pair+", "rel1-": "pair-", "rel2": "triple+", "rel3": "triple-"}


def _direct_family_sweep(family, P, p):
    """A standalone family as a direct orthonormal sweep at its indices."""
    indices = statistics._family_indices(family, P)
    plus, minus = ladder_operators(P, p, "orthonormal")
    report = relation_report(P, family, plus, minus, indices)
    failures = [RelationFailure(_FAMILY_TAGS[f.relation], f.indices, f.residual) for f in report.failures]
    return RelationReport(P.as_tuple(), family, report.checked, failures)


def _family_digests(points):
    routed, direct = hashlib.sha256(), hashlib.sha256()
    for P, p in points:
        for family in FAMILIES:
            routed.update(json.dumps(relation_suite(family, P, p).to_json()).encode())
            direct.update(json.dumps(_direct_family_sweep(family, P, p).to_json()).encode())
    return routed.hexdigest(), direct.hexdigest()


_SMALL_BLOCKS = [b for b in itertools.product(range(3), repeat=4) if sum(b) <= 4]


# sha256 of the 750 standalone family reports under one rule fault (None:
# honest), recorded from the direct sweep before the route.
_HONEST_FAMILY_DIGEST = "040c1193156a9e68c663bb1ffdcc258c43c4976cd89207ef45d2026edf4a611c"
_FAMILY_DIGESTS = {
    None: _HONEST_FAMILY_DIGEST,
    "sign": _HONEST_FAMILY_DIGEST,
    "weight": "ea531a46bb52f0f926524113412eb6637a59f4e6751cc337f93f306be1f73315",
}


@pytest.mark.parametrize("name", list(_FAMILY_DIGESTS), ids=str)
def test_standalone_families_equal_the_direct_sweep(monkeypatch, name):
    if name is not None:
        monkeypatch.setattr(fock, "_ladder_rule", _faulty_rule(_RULE_FAULTS[name]))
    points = [(AlgebraParams(*blocks), p) for blocks in _SMALL_BLOCKS for p in (1, 2, 3)]
    ladder_operators.cache_clear()
    try:
        routed, direct = _family_digests(points)
    finally:
        ladder_operators.cache_clear()
    assert routed == direct == _FAMILY_DIGESTS[name]


def test_a_standalone_family_builds_only_the_operators_it_touches(monkeypatch):
    P, p = AlgebraParams(2, 2, 2, 2), 3
    honest, built = fock.operator_matrix, []

    def counted(gid, params, p, basis_kind="orthonormal", ft_variant=FT_CORRECTED):
        built.append((gid, basis_kind))
        return honest(gid, params, p, basis_kind, ft_variant)

    monkeypatch.setattr(fock, "operator_matrix", counted)
    ladder_operators.cache_clear()
    try:
        assert relation_suite("A1-ft", P, p).passed
    finally:
        ladder_operators.cache_clear()
    # the 2 * n2 f-tilde operators, once on each basis kind
    ft = range(P.m + P.n1 + 1, P.m + P.n + 1)
    expected = {(GeneratorId(i, sign), kind) for kind in BASIS_KINDS for i in ft for sign in "+-"}
    assert len(built) == len(set(built)) == 2 * 2 * P.n2
    assert set(built) == expected


_DOUBLE_LOWERING = lambda honest: _replace_first_entry(  # noqa: E731
    honest, lambda c: c * 2, GeneratorId(1, "-")
)


@pytest.mark.parametrize("plant", [_double_one_entry, _DOUBLE_LOWERING])
def test_an_orthonormal_only_fault_reroutes_only_the_families_it_touches(monkeypatch, plant):
    P, p = AlgebraParams(1, 1, 1, 1), 2
    monkeypatch.setattr(fock, "operator_matrix", plant(fock.operator_matrix))
    swept = _record_sweeps(monkeypatch)
    ladder_operators.cache_clear()
    try:
        for family in FAMILIES:
            swept.clear()
            report = relation_suite(family, P, p)
            direct = _direct_family_sweep(family, P, p)
            indices = statistics._family_indices(family, P)
            touches = any(1 in idx for idx in indices)
            ortho_len = len(indices) if touches else 0
            assert swept == [
                ("relations-unnormalized", len(indices)),
                ("relations-orthonormal", ortho_len),
            ], family
            assert report.to_json() == direct.to_json(), family
            assert report.passed != touches, family
    finally:
        ladder_operators.cache_clear()


# graded_bracket calls of each passing operation at (2,2,2,2) p=2
_FOCK_BRACKET_COUNTS = {
    "verify_representation": 1216,
    "A-stat": 176,
    "A1-f": 28,
    "A1-ft": 28,
    "MixA1": 88,
    "MixA2": 56,
}


def test_each_sweep_forms_each_inner_bracket_once(monkeypatch):
    P, p = AlgebraParams(2, 2, 2, 2), 2
    honest, calls = algebra.graded_bracket, [0]

    def counted(x, y):
        calls[0] += 1
        return honest(x, y)

    for module in (algebra, statistics):
        monkeypatch.setattr(module, "graded_bracket", counted)
    counts, expected = {}, {}
    for name in _FOCK_BRACKET_COUNTS:
        calls[0] = 0
        if name == "verify_representation":
            assert verify_representation(P, p).passed
            indices = sweep_indices(P)
        else:
            assert relation_suite(name, P, p).passed
            indices = statistics._family_indices(name, P)
        counts[name] = calls[0]
        # two brackets per pair or triple, and one [a_i^+, a_j^-] per (i, j) of a triple
        expected[name] = 2 * len(indices) + len({idx[:2] for idx in indices if len(idx) == 3})
    assert counts == expected == _FOCK_BRACKET_COUNTS
