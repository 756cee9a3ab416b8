"""Statistics families, Hamiltonian, ladder relations, spectra, occupancy."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from zzsl import (
    FAMILIES,
    FT_CORRECTED,
    AlgebraParams,
    FTildeVariant,
    Grade,
    dimension,
    enumerate_basis,
    hamiltonian,
    ladder_operators,
    ladder_residual,
    occupancy_report,
    relation_suite,
    spectrum,
    verify_representation,
)
from zzsl import fock
from zzsl.reports import RepresentationReport
from zzsl.statistics import _family_indices


def test_families_pass_when_representation_passes():
    P = AlgebraParams(1, 1, 1, 1)
    assert verify_representation(P, 2).passed
    for family in FAMILIES:
        report = relation_suite(family, P, 2)
        assert report.passed, family
        assert not report.vacuous


def test_family_a_stat_restricted_to_even_indices():
    report = relation_suite("A-stat", AlgebraParams(1, 1, 1, 1), 2)
    # 4 pair checks + 2 * 8 triple checks over i,j,k <= 2
    assert report.checked == 4 + 16
    assert report.passed


def test_mix_a2_spot_identity():
    P = AlgebraParams(0, 0, 1, 1)
    plus, minus = ladder_operators(P, 1)
    a, b = plus[0], minus[0]
    lhs = (a @ b + b @ a).commutator(plus[1])
    assert lhs == -plus[1]


def test_vacuous_suite():
    report = relation_suite("A1-f", AlgebraParams(1, 1, 0, 1), 1)
    assert report.vacuous
    assert report.passed
    with pytest.raises(ValueError):
        relation_suite("nope", AlgebraParams(1, 1, 1, 1), 1)


def _family_order(family, P):
    """A family's checks as its own loops run them: pure families all pairs
    then all triples, mixed families each pair followed by its triples."""
    m, n1, n = P.m, P.n1, P.n
    b, f, ft, odd = (range(1, m + 1), range(m + 1, m + n1 + 1),
                     range(m + n1 + 1, m + n + 1), range(m + 1, m + n + 1))
    pure = {"A-stat": b, "A1-f": f, "A1-ft": ft}
    if family in pure:
        r = pure[family]
        return [(i, j) for i in r for j in r] + [(i, j, k) for i in r for j in r for k in r]
    blocks = [(f, ft, odd), (ft, f, odd)] if family == "MixA1" else [(f, f, ft), (ft, ft, f)]
    order = []
    for first, second, outer in blocks:
        for i in first:
            for j in second:
                order += [(i, j)] + [(i, j, k) for k in outer]
    return order


# sha256 over repr(_family_indices(family, P)), in FAMILIES order for each
# composition P with blocks <= 3 taken in itertools.product order, recorded
# while the family index lists were still read off a table of named blocks.
_FAMILY_ORDER_DIGEST = "e70998a8c4ee1c4b92957d0dcb7b6e43295faf4e62db7e8389843428ae69497e"


def test_family_check_order_is_pinned():
    digest = hashlib.sha256()
    for blocks in itertools.product(range(4), repeat=4):
        P = AlgebraParams(*blocks)
        for family in FAMILIES:
            indices = _family_indices(family, P)
            assert indices == _family_order(family, P), (family, blocks)
            digest.update(repr(indices).encode())
    assert digest.hexdigest() == _FAMILY_ORDER_DIGEST


def _planted(families, sign, factor, min_total):
    """Scale the matrix of the first orbital of each family in the columns of
    states holding at least min_total quanta."""
    honest = fock.operator_matrix

    def planted(gid, params, p, basis_kind="orthonormal", ft_variant=FT_CORRECTED):
        op = honest(gid, params, p, basis_kind, ft_variant)
        if gid.family(params) not in families or (gid.family_position(params), gid.sign) != (0, sign):
            return op
        occupations = op.basis.occupations
        entries = {
            (row, col): coeff * factor if sum(occupations[col]) >= min_total else coeff
            for row, col, coeff in op.items()
        }
        return fock.SparseOperator(op.basis, entries, op.grade)

    return planted


@pytest.fixture
def fresh_operators():
    ladder_operators.cache_clear()
    yield
    ladder_operators.cache_clear()


@pytest.mark.parametrize(
    "fault", [(("bt",), "+", -1, 0), (("ft",), "-", 2, 0), (("f", "ft"), "+", 2, 1)]
)
@pytest.mark.parametrize("blocks", [(1, 1, 1, 1), (1, 1, 2, 2)])
def test_families_are_views_of_the_relation_sweep(monkeypatch, fresh_operators, fault, blocks):
    monkeypatch.setattr(fock, "operator_matrix", _planted(*fault))
    P, p = AlgebraParams(*blocks), 2
    rep = verify_representation(P, p)
    sweep = rep.suite("relations-orthonormal").failures
    assert sweep, "the planted fault must show in the relation sweep"
    relabel = {"rel1+": "pair+", "rel1-": "pair-", "rel2": "triple+", "rel3": "triple-"}
    tag_rank = {"rel1+": 0, "rel1-": 1, "rel2": 0, "rel3": 1}
    seen = 0
    for family in FAMILIES:
        order = {idx: pos for pos, idx in enumerate(_family_order(family, P))}
        expected = [
            {**f.to_json(), "relation": relabel[f.relation]}
            for f in sorted(
                (f for f in sweep if f.indices in order),
                key=lambda f: (order[f.indices], tag_rank[f.relation]),
            )
        ]
        standalone = relation_suite(family, P, p)
        view = relation_suite(family, P, p, representation=rep)
        assert [f.to_json() for f in standalone.failures] == expected, family
        assert view.to_json() == standalone.to_json(), family
        assert standalone.checked == sum(len(idx) - 1 for idx in order)
        seen += len(expected)
    assert seen, "some family must see the planted fault"


def test_family_view_rejects_a_foreign_report():
    P = AlgebraParams(1, 0, 1, 1)
    rep = verify_representation(P, 2)
    for family in FAMILIES:
        assert relation_suite(family, P, 2, representation=rep).passed
    with pytest.raises(ValueError):
        relation_suite("A-stat", P, 1, representation=rep)
    with pytest.raises(ValueError):
        relation_suite("A-stat", AlgebraParams(1, 0, 1, 0), 2, representation=rep)
    label = FTildeVariant("lambda", "theta").label
    variant = RepresentationReport(rep.params, rep.p, label, rep.suites)
    with pytest.raises(ValueError):
        relation_suite("MixA1", P, 2, representation=variant)
    # a family reads the orthonormal sweep only, and a report only by keyword
    with pytest.raises(TypeError):
        relation_suite("A-stat", P, 2, basis_kind="orthonormal")
    with pytest.raises(TypeError):
        relation_suite("A-stat", P, 2, rep)


def test_hamiltonian_small_case():
    P = AlgebraParams(1, 0, 1, 0)
    basis = enumerate_basis(P, 1)
    H = hamiltonian(P, 1, [1])
    assert H.grade == Grade(0, 0)
    assert H.is_diagonal
    diag = H.diagonal()
    assert diag[basis.index_of((0, 0))].is_zero
    assert diag[basis.index_of((1, 0))] == 1
    assert diag[basis.index_of((0, 1))] == 1


def test_hamiltonian_eigenvalue_two_states():
    P = AlgebraParams(1, 0, 1, 0)
    basis = enumerate_basis(P, 2)
    H = hamiltonian(P, 2, [1])
    diag = H.diagonal()
    assert diag[basis.index_of((2, 0))] == 2
    assert diag[basis.index_of((1, 1))] == 2


def test_hamiltonian_validation():
    P = AlgebraParams(1, 0, 1, 0)
    H = hamiltonian(P, 1, [1])
    assert hamiltonian(P, 1, [Fraction(1)]) == H  # list input
    assert hamiltonian(P, 1, (e for e in [1])) == H  # read once, as a generator
    # the calls below reuse the arguments of a built H; validation runs first
    with pytest.raises(ValueError):
        hamiltonian(AlgebraParams(1, 0, 0, 0), 1, [1])  # m != n
    with pytest.raises(ValueError):
        hamiltonian(P, 1, [1, 2])  # wrong length
    with pytest.raises(ValueError):
        hamiltonian(P, 1, (Fraction(1), Fraction(2)))
    with pytest.raises(ValueError):
        ladder_residual(P, 1, [1, 2], 1)
    with pytest.raises(TypeError):
        hamiltonian(P, 1, [0.5])
    with pytest.raises(TypeError):
        hamiltonian(P, 1, (1.0,))
    with pytest.raises(ValueError):
        hamiltonian(P, 1, [1], reading="weird")
    with pytest.raises(ValueError):
        hamiltonian(P, True, [1])  # a bool order


@pytest.mark.parametrize("energy", [True, "3/2", 0.5])
@pytest.mark.parametrize("entry", ["hamiltonian", "ladder_residual", "spectrum"])
def test_energies_must_be_exact_ints_or_fractions(entry, energy):
    # a bool or str is not an energy, although Fraction() would take either
    P = AlgebraParams(1, 0, 1, 0)
    call = {
        "hamiltonian": lambda: hamiltonian(P, 1, [energy]),
        "ladder_residual": lambda: ladder_residual(P, 1, [energy], 1),
        "spectrum": lambda: spectrum(P, 1, [energy]),
    }[entry]
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("blocks", [(1, 0, 1, 0), (1, 1, 1, 1), (2, 0, 2, 0)])
def test_literal_reading_is_commutator_plus_anticommutator(blocks):
    P = AlgebraParams(*blocks)
    eps = [Fraction(k + 1, 2 + k) for k in range(P.m)]
    for p in (1, 2):
        plus, minus = ladder_operators(P, p)
        expected = fock.SparseOperator.zero(enumerate_basis(P, p), Grade(0, 0))
        for pos, e in enumerate(eps):
            up, down = plus[pos], minus[pos]
            expected = expected + (up.commutator(down) + up @ down + down @ up) * e
        assert hamiltonian(P, p, eps, "literal") == expected
        assert not hamiltonian(P, p, eps, "literal").is_zero


def test_hamiltonian_diagonal_matches_occupation_sums():
    P = AlgebraParams(1, 1, 1, 1)
    eps = [Fraction(1), Fraction(3, 2)]
    for p in (1, 2, 3):
        basis = enumerate_basis(P, p)
        H = hamiltonian(P, p, eps)
        assert H.is_diagonal
        for pos, occ in enumerate(basis.occupations):
            expected = sum(e * (occ[i] + occ[i + P.m]) for i, e in enumerate(eps))
            assert H.entry(pos, pos) == expected


def test_ladder_residuals_zero_under_graded_reading():
    P = AlgebraParams(1, 0, 1, 0)
    for p in (1, 2, 3):
        for sign in "+-":
            for index in (1, 2):
                assert ladder_residual(P, p, [1], index, sign).is_zero


def test_fermionic_partner_shares_energy():
    P = AlgebraParams(1, 0, 0, 1)
    eps = [Fraction(5, 3)]
    assert ladder_residual(P, 2, eps, 2, "+").is_zero
    assert ladder_residual(P, 2, eps, 2, "-").is_zero


def test_literal_reading_breaks_fermionic_ladder():
    P = AlgebraParams(1, 0, 1, 0)
    residual = ladder_residual(P, 2, [1], 2, "+", reading="literal")
    assert not residual.is_zero


def test_ladder_residual_validation():
    P = AlgebraParams(1, 0, 1, 0)
    with pytest.raises(ValueError):
        ladder_residual(P, 1, [1], 3)
    with pytest.raises(ValueError):
        ladder_residual(P, 1, [1], 1, "x")
    for index in (1.0, True, "1"):
        with pytest.raises(ValueError):
            ladder_residual(P, 2, [1], index, "+")


def test_spectrum_example():
    pairs = spectrum(AlgebraParams(1, 0, 1, 0), 1, [1])
    assert [(v.as_fraction(), m) for v, m in pairs] == [(0, 1), (1, 2)]


def test_spectrum_total_multiplicity_and_zero_energy():
    P = AlgebraParams(1, 1, 1, 1)
    for p in (1, 2):
        pairs = spectrum(P, p, [Fraction(1), Fraction(3, 2)])
        assert sum(m for _, m in pairs) == dimension(P, p)
        values = [v.as_fraction() for v, _ in pairs]
        assert values == sorted(values)
    flat = spectrum(P, 2, [0, 0])
    assert flat == [(flat[0][0], dimension(P, 2))]
    assert flat[0][0].is_zero


def test_occupancy_report():
    report = occupancy_report(AlgebraParams(1, 1, 1, 1), 3)
    assert report.max_r == [3]
    assert report.max_l == [3]
    assert report.max_theta == [1]
    assert report.max_lambda == [1]
    assert report.max_total == 3
    assert report.dimension == dimension(AlgebraParams(1, 1, 1, 1), 3)


def test_occupancy_limited_by_orbitals():
    report = occupancy_report(AlgebraParams(0, 0, 2, 0), 5)
    assert report.max_total == 2
    assert report.max_theta == [1, 1]


def test_occupancy_order_one():
    report = occupancy_report(AlgebraParams(2, 1, 1, 1), 1)
    assert report.max_r == [1, 1]
    assert report.max_l == [1]
    assert report.max_total == 1


def test_occupancy_json_keys():
    data = occupancy_report(AlgebraParams(1, 0, 1, 0), 2).to_json()
    assert set(data) == {
        "params", "p", "dimension", "max_r", "max_l", "max_theta", "max_lambda", "max_total",
    }
