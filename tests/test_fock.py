"""Fock basis enumeration, ladder actions and representation verification."""

import hashlib
import json
from fractions import Fraction

import pytest

from zzsl import (
    FT_CORRECTED,
    AlgebraParams,
    FockState,
    FTildeVariant,
    GeneratorId,
    RadicalSum,
    closed_form_dimension,
    dimension,
    enumerate_basis,
    ft_variant_discrimination,
    ft_variants,
    generator_ids,
    graded_bracket,
    ladder_operators,
    norm_factor,
    operator_matrix,
    order_one_defining_comparison,
    single_quantum_state,
    spanning_rank,
    verify_representation,
)
from zzsl import fock
from zzsl.algebra import relation_report, sweep_indices
from zzsl.fock import BASIS_KINDS, MAX_BASIS_DIMENSION


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
    # a bool order is rejected even after the int 1 is cached
    enumerate_basis(AlgebraParams(1, 0, 0, 0), 1)
    ladder_operators(AlgebraParams(1, 0, 0, 0), 1)
    with pytest.raises(ValueError):
        enumerate_basis(AlgebraParams(1, 0, 0, 0), True)
    with pytest.raises(ValueError):
        ladder_operators(AlgebraParams(1, 0, 0, 0), True)


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
    for bad in [((True,), (), (0,), ()), ((0,), (), (False,), ()), ((0,), (), (1.0,), ())]:
        with pytest.raises(ValueError):
            FockState(*bad)


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


def test_norm_factor_examples():
    P = AlgebraParams(1, 0, 0, 0)
    assert norm_factor(FockState.vacuum(P), 2) == 1
    assert norm_factor(FockState((1,), (), (), ()), 2) == RadicalSum.sqrt(2) / 2
    assert norm_factor(FockState((2,), (), (), ()), 2) == Fraction(1, 2)
    with pytest.raises(ValueError):
        norm_factor(FockState((2,), (), (), ()), 1)
    # the order goes through the same positive-integer test as the dimension
    for bad in (True, 1.5, 0):
        with pytest.raises(ValueError, match="order p must be a positive integer"):
            norm_factor(FockState((1,), (), (), ()), bad)


# ------------------------------------------------------------------ actions


def _action(gid, params, state, p, basis_kind="orthonormal"):
    """The nonzero entries of the operator matrix in the column of ``state``,
    as (coefficient, target state) pairs, read through ``basis.index_of``."""
    basis = enumerate_basis(params, p)
    col = basis.index_of(state)
    op = operator_matrix(gid, params, p, basis_kind)
    return [(coeff, basis.states[row]) for row, j, coeff in op.items() if j == col]


def test_lowering_kills_vacuum():
    P = AlgebraParams(1, 1, 1, 1)
    vac = FockState.vacuum(P)
    for i in range(1, 5):
        assert _action(GeneratorId(i, "-"), P, vac, 2) == []


def test_f_raising_sign_example():
    P = AlgebraParams(1, 1, 1, 1)
    state = FockState((0,), (1,), (0,), (0,))
    out = _action(GeneratorId(3, "+"), P, state, 2)
    assert out == [(RadicalSum(-1), FockState((0,), (1,), (1,), (0,)))]


def test_pauli_factor():
    P = AlgebraParams(1, 1, 1, 1)
    state = FockState((0,), (0,), (1,), (0,))
    assert _action(GeneratorId(3, "+"), P, state, 2) == []


def test_unnormalized_lowering_coefficient():
    P = AlgebraParams(1, 0, 0, 0)
    state = FockState((2,), (), (), ())
    out = _action(GeneratorId(1, "-"), P, state, 3, "unnormalized")
    assert out == [(RadicalSum(4), FockState((1,), (), (), ()))]


def test_unnormalized_raising_drops_at_cap():
    P = AlgebraParams(1, 0, 0, 0)
    full = FockState((3,), (), (), ())
    assert _action(GeneratorId(1, "+"), P, full, 3, "unnormalized") == []
    below = FockState((2,), (), (), ())
    out = _action(GeneratorId(1, "+"), P, below, 3, "unnormalized")
    assert out == [(RadicalSum(1), full)]


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
                    # ortho = N^-1 plain N entry by entry, with N = diag(factors)
                    assert ortho.entry(row, col) * factors[row] == factors[col] * coeff
        assert fock._orthonormal_is_conjugate(P, p)


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


def test_every_module_up_to_four_orbitals_and_order_five_verifies():
    compositions = list(small_sweep(4))
    assert len(compositions) == 70
    failing = [
        (P.as_tuple(), p)
        for P in compositions
        for p in range(1, 6)
        if not verify_representation(P, p).passed
    ]
    assert failing == []


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
        suite = verify_representation(AlgebraParams(*blocks), p, variant).suite("vacuum-orthonormal")
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
        assert not fock._orthonormal_is_conjugate(P, p)
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
        assert fock._orthonormal_is_conjugate(P, p)
        got = verify_representation(P, p).suite("relations-orthonormal")
        forced = _full_orthonormal_sweep(P, p)
    finally:
        ladder_operators.cache_clear()
    assert got.failures
    assert got.to_json() == forced.to_json()
