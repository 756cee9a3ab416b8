"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion.  Every tolerance is zero; the only non-exact quantities are
the runtime budgets, asserted as stated.
"""

import time
from fractions import Fraction

from zzsl import (
    FAMILIES,
    AlgebraParams,
    GeneratorId,
    axiom_report,
    closed_form_dimension,
    dimension,
    enumerate_basis,
    ft_variant_discrimination,
    hamiltonian,
    ladder_residual,
    occupancy_report,
    operator_matrix,
    order_one_defining_comparison,
    relation_suite,
    spectrum,
    verify_defining_relations,
    verify_representation,
)


def compositions(total_max):
    """All (m1, m2, n1, n2) with m + n <= total_max."""
    out = []
    for m1 in range(total_max + 1):
        for m2 in range(total_max + 1 - m1):
            for n1 in range(total_max + 1 - m1 - m2):
                for n2 in range(total_max + 1 - m1 - m2 - n1):
                    out.append(AlgebraParams(m1, m2, n1, n2))
    return out


def report_line(number, description, failures, elapsed, budget):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} [{status}] {description} ({elapsed:.2f}s / budget {budget}s)")
    assert not failures, f"criterion {number}: {failures[:5]}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s: {elapsed:.2f}s"


def test_criterion_1_axiom_suite():
    start = time.perf_counter()
    failures = []
    for params in compositions(3):
        report = axiom_report(params)
        if not report.passed:
            failures.append((params.as_tuple(), report.failures[0].identity))
    elapsed = time.perf_counter() - start
    report_line(1, "symmetry/Jacobi/supertrace axioms for all m+n<=3", failures, elapsed, 10)


def test_criterion_2_defining_relations():
    start = time.perf_counter()
    failures = []
    for params in compositions(4):
        K = params.m + params.n
        report = verify_defining_relations(params)
        if not report.passed:
            failures.append((params.as_tuple(), report.failures[0].relation))
        if report.checked != K**2 + 2 * K**3:
            failures.append((params.as_tuple(), "unexpected check count"))
    elapsed = time.perf_counter() - start
    report_line(2, "defining triple relations for all m+n<=4", failures, elapsed, 30)


def test_criterion_3_fock_representation():
    start = time.perf_counter()
    failures = []
    for params in compositions(4):
        for p in (1, 2, 3):
            if dimension(params, p) > 500:
                continue
            report = verify_representation(params, p)
            if not report.passed:
                bad = [s.label for s in report.suites if not s.passed]
                failures.append((params.as_tuple(), p, bad))
    elapsed = time.perf_counter() - start
    report_line(
        3, "representation relations/vacuum/adjointness/spanning, m+n<=4, p<=3",
        failures, elapsed, 60,
    )


def test_criterion_4_dimension_oracle():
    start = time.perf_counter()
    failures = []
    for params in compositions(4):
        for p in (1, 2, 3):
            if dimension(params, p) != closed_form_dimension(params, p):
                failures.append((params.as_tuple(), p))
        if dimension(params, 1) != params.m + params.n + 1:
            failures.append((params.as_tuple(), "p=1 count"))
    if dimension(AlgebraParams(1, 1, 1, 1), 2) != 13:
        failures.append("spot value 13")
    elapsed = time.perf_counter() - start
    report_line(4, "enumeration equals closed-form dimension", failures, elapsed, 30)


def test_criterion_5_typo_discrimination():
    start = time.perf_counter()
    failures = []
    params = AlgebraParams(1, 1, 1, 1)  # n2 >= 1
    for p in (1, 2):
        report = ft_variant_discrimination(params, p)
        if not report.corrected_only_passes:
            failures.append((p, "corrected variant is not the unique pass"))
        literal = report.outcome("ft+->theta,ft-->theta")
        if literal.relation_failure is None:
            failures.append((p, "no failing triple exhibited"))
        else:
            fail = literal.relation_failure
            where = ",".join(
                str(fail[key]) for key in ("i", "j", "k") if key in fail
            )
            print(
                f"  exhibited failing triple (p={p}): {fail['suite']} "
                f"{fail['relation']} at ({where})"
            )
    elapsed = time.perf_counter() - start
    report_line(5, "theta-slot variants fail, lambda-slot rules pass", failures, elapsed, 30)


def test_criterion_6_order_one_equivalence():
    start = time.perf_counter()
    failures = []
    for params in compositions(4):
        if not order_one_defining_comparison(params):
            failures.append(params.as_tuple())
    elapsed = time.perf_counter() - start
    report_line(6, "p=1 matrices coincide with the defining matrix units", failures, elapsed, 30)


def test_criterion_7_statistics_families():
    start = time.perf_counter()
    failures = []
    for params in (AlgebraParams(1, 1, 1, 1), AlgebraParams(2, 1, 2, 1)):
        for p in (1, 2):
            for family in FAMILIES:
                report = relation_suite(family, params, p)
                if not report.passed:
                    failures.append((params.as_tuple(), p, family))
    elapsed = time.perf_counter() - start
    report_line(7, "A-statistics and mixed families on stated ranges", failures, elapsed, 30)


def test_criterion_8_hamiltonian_ladder_and_spectrum():
    start = time.perf_counter()
    failures = []
    energies = {0: [], 1: [Fraction(1)], 2: [Fraction(1), Fraction(3, 2)]}
    paired = [P for P in compositions(4) if P.m == P.n and P.m <= 2]
    for params in paired:
        eps = energies[params.m]
        for p in (1, 2, 3):
            for index in range(1, 2 * params.m + 1):
                for sign in "+-":
                    if not ladder_residual(params, p, eps, index, sign).is_zero:
                        failures.append((params.as_tuple(), p, index, sign, "graded"))
            if params.m >= 1:
                literal_broken = any(
                    not ladder_residual(params, p, eps, index, sign, "literal").is_zero
                    for index in range(params.m + 1, 2 * params.m + 1)
                    for sign in "+-"
                )
                if not literal_broken:
                    failures.append((params.as_tuple(), p, "literal reading not broken"))
            # spectrum: multiplicities sum to dim, entries match occupation sums
            pairs = spectrum(params, p, eps)
            if sum(mult for _, mult in pairs) != dimension(params, p):
                failures.append((params.as_tuple(), p, "multiplicity sum"))
            basis = enumerate_basis(params, p)
            ham = hamiltonian(params, p, eps)
            for pos, occ in enumerate(basis.occupations):
                predicted = sum(e * (occ[i] + occ[i + params.m]) for i, e in enumerate(eps))
                if ham.entry(pos, pos) != predicted:
                    failures.append((params.as_tuple(), p, pos, "diagonal prediction"))
    elapsed = time.perf_counter() - start
    report_line(8, "ladder relations and spectra for m=n<=2, p<=3", failures, elapsed, 60)


def test_criterion_9_pauli_principle():
    start = time.perf_counter()
    failures = []
    cases = [
        (AlgebraParams(1, 1, 1, 1), 3),
        (AlgebraParams(2, 1, 2, 1), 2),
        (AlgebraParams(0, 0, 2, 0), 5),
        (AlgebraParams(2, 0, 1, 1), 1),
    ]
    for params, p in cases:
        report = occupancy_report(params, p)
        # bosonic orbitals are capped only by the order p; fermionic ones by 1
        if any(v != p for v in report.max_r + report.max_l):
            failures.append((params.as_tuple(), p, "bosonic maxima"))
        if any(v != 1 for v in report.max_theta + report.max_lambda):
            failures.append((params.as_tuple(), p, "fermionic maxima"))
        achievable = p if params.m >= 1 else min(p, params.n)
        if report.max_total != achievable:
            failures.append((params.as_tuple(), p, "global maximum"))
        # (a_i^+)**(p+1) annihilates everything
        for index in range(1, params.m + params.n + 1):
            up = operator_matrix(GeneratorId(index, "+"), params, p)
            if not (up ** (p + 1)).is_zero:
                failures.append((params.as_tuple(), p, index, "nilpotency"))
    elapsed = time.perf_counter() - start
    report_line(9, "occupation maxima and the exclusion bound", failures, elapsed, 30)
